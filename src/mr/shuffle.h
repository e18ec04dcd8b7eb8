// Shuffle-side coordination: the map-output tracker (which map task
// finished where) and the k-way merge / grouped iteration used by the
// with-barrier reduce path.
#pragma once

#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "mr/api.h"
#include "mr/types.h"
#include "obs/trace.h"

namespace bmr::mr {

/// Tracks completion (and loss) of map tasks in an append-only log of
/// committed attempts, which each reducer's copiers walk with a shared
/// cursor.  A fetch failure reports the output lost, which un-completes
/// the task until the engine re-runs it (map re-execution).
class MapOutputTracker {
 public:
  explicit MapOutputTracker(int num_map_tasks);

  /// Attempt `version` of map `map`, committed on `node`.
  struct Entry {
    int map = -1, node = -1, version = -1;
  };
  /// A fetch's place in the log, shared by its copiers; read and
  /// written only under the tracker's mutex.
  struct Cursor {
    size_t next = 0;
    bool stopped = false;
  };

  /// Map task `m` finished on `node`: bumps its version and logs it.
  void MarkDone(int m, int node) BMR_EXCLUDES(mu_);

  /// Block for the next still-current entry past `cursor`, skipping
  /// attempts since lost or re-run; false once cancelled or stopped.
  bool Next(Cursor* cursor, Entry* entry) BMR_EXCLUDES(mu_);

  /// Wait `ms`, not cut short by MarkDone; false if cancelled or stopped.
  bool Backoff(const Cursor* cursor, double ms) BMR_EXCLUDES(mu_);

  /// Release every waiter on `cursor`: its fetch needs nothing more.
  void Stop(Cursor* cursor) BMR_EXCLUDES(mu_);

  /// A copier failed to read `m`'s output of attempt `version`.
  /// Returns true if this call transitioned the task to lost (the
  /// caller must arrange a re-run); false if someone already did or a
  /// newer attempt exists.
  [[nodiscard]] bool ReportLost(int m, int version) BMR_EXCLUDES(mu_);

  /// Wake all waiters with a cancelled signal.
  void Cancel() BMR_EXCLUDES(mu_);

  int num_map_tasks() const { return num_map_tasks_; }

 private:
  struct TaskState {
    bool done = false;
    int version = 0;  // bumped on every MarkDone
  };

  const int num_map_tasks_;
  BMR_ACQUIRED_AFTER("mr.task_scheduler")
  OrderedMutex mu_{"mr.shuffle.tracker"};
  CondVar cv_;
  std::vector<TaskState> state_ BMR_GUARDED_BY(mu_);
  std::vector<Entry> log_ BMR_GUARDED_BY(mu_);
  bool cancelled_ BMR_GUARDED_BY(mu_) = false;
};

/// Iterate sorted records grouped by `group_cmp`, invoking the
/// with-barrier Reducer once per group.  `records` must already be
/// sorted by the job's sort comparator.  With a tracer, samples every
/// 16th group's Reduce latency into bmr_reduce_invoke_us.
[[nodiscard]] Status ReduceGroups(const std::vector<Record>& records,
                    const KeyCompareFn& group_cmp, Reducer* reducer,
                    ReduceContext* ctx, obs::Tracer* tracer = nullptr);

/// k-way merge of per-map sorted runs into one sorted vector.
/// Runs with identical keys interleave in run order (stable).
std::vector<Record> MergeSortedRuns(std::vector<std::vector<Record>> runs,
                                    const KeyCompareFn& sort_cmp);

}  // namespace bmr::mr
