// Cross-job memoization of partial results — the §8 future-work item
// ("Memoization, an optimization similar to DryadInc, becomes feasible
// in the barrier-less model").
//
// A barrier-less reducer's state is an explicit per-key partial result
// with an associative MergePartials, so a finished job can snapshot the
// partials per reduce partition and a later job over *additional*
// input can seed its stores from the snapshot: only the new records
// are folded, and the final outputs equal a from-scratch run over the
// union of the inputs.  The with-barrier model cannot do this — its
// reduce state is implicit in the sorted record stream.
//
// Requirements (caller's contract): the incremental job must keep the
// same number of reducers, partitioner, and key ordering across runs.
#pragma once

#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "mr/types.h"

namespace bmr::core {

/// Thread-safe snapshot container: reducer partition → (key, partial)
/// pairs in key order.
class JobSession {
 public:
  JobSession() = default;

  JobSession(const JobSession&) = delete;
  JobSession& operator=(const JobSession&) = delete;

  /// Replace partition r's snapshot (called by the engine at the end of
  /// each barrier-less reduce task when a session is attached).
  void Save(int reducer, std::vector<mr::Record> partials)
      BMR_EXCLUDES(mu_);

  /// Partition r's snapshot from the previous run; nullptr if none.
  /// The pointer stays valid until the next Save(r).
  const std::vector<mr::Record>* Get(int reducer) const BMR_EXCLUDES(mu_);

  bool empty() const BMR_EXCLUDES(mu_);
  uint64_t TotalPartials() const BMR_EXCLUDES(mu_);
  /// Drop all snapshots (start over).
  void Clear() BMR_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::unordered_map<int, std::vector<mr::Record>> partials_
      BMR_GUARDED_BY(mu_);
};

}  // namespace bmr::core
