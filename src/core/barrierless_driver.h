// The barrier-less run() driver (Section 3.1/3.2).
//
// Plays the role of the custom run() function the paper has the
// programmer write: each record popped off the shuffle FIFO is folded
// into its key's partial result by one PartialStore::Fold call, which
// starts the partial from InitPartial on first sight and runs the
// single-record Reduce on it in place.  After the last record it emits
// all finished keys in key order — merging spilled fragments — and
// flushes reducer-internal state.
#pragma once

#include <memory>
#include <vector>

#include "common/config.h"
#include "core/incremental.h"
#include "core/partial_store.h"
#include "mr/emitter.h"
#include "mr/types.h"

namespace bmr::core {

class BarrierlessDriver {
 public:
  /// The driver does not own the reducer; it owns the store it creates.
  BarrierlessDriver(IncrementalReducer* reducer, const StoreConfig& store_config,
                    const Config& job_config);

  /// Feed one shuffled record, in arrival order.  RESOURCE_EXHAUSTED
  /// means the partial results overflowed the heap (job death, Fig 5a).
  [[nodiscard]] Status Consume(Slice key, Slice value, mr::ReduceEmitter* out);

  /// Called once after the last record: ordered final emission with
  /// fragment merging, then reducer Flush.
  [[nodiscard]] Status Finalize(mr::ReduceEmitter* out);

  /// Seed the store with a partial result captured by a previous run
  /// (memoization, §8).  Must be called before the first Consume; the
  /// value is installed verbatim by a store fold, the app's Update is
  /// not invoked.  Later records for the key fold on top of it.
  [[nodiscard]] Status PreloadPartial(Slice key, Slice partial);

  /// Like Finalize, but additionally appends every (key, merged
  /// partial) — *before* Finish transforms it — to `snapshot`, so a
  /// future job can PreloadPartial from it.
  [[nodiscard]] Status FinalizeWithSnapshot(mr::ReduceEmitter* out,
                              std::vector<mr::Record>* snapshot);

  /// Progressive (online) results: emit the finished form of every key
  /// folded *so far*, without disturbing the store — callable any
  /// number of times while records keep arriving.  This is the
  /// online-processing capability the barrier fundamentally prevents.
  [[nodiscard]] Status EmitSnapshot(mr::ReduceEmitter* out);

  /// Estimated partial-result memory right now (Fig. 5 heap curves).
  uint64_t MemoryBytes() const { return store_ ? store_->MemoryBytes() : 0; }

  uint64_t records_consumed() const { return records_consumed_; }

  const PartialStore* store() const { return store_.get(); }

 private:
  IncrementalReducer* reducer_;
  std::unique_ptr<PartialStore> store_;  // null if reducer skips the store
  obs::Tracer* tracer_ = nullptr;        // from StoreConfig; not owned
  uint64_t records_consumed_ = 0;
  bool finalized_ = false;
};

}  // namespace bmr::core
