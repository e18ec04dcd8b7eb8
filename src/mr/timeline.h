// Task lifecycle events, the data behind Figure 4's task-count plots,
// and the free functions that read them.  The events themselves live
// in the job's MetricsRegistry (mr/metrics.h); simmr records into a
// plain vector.
#pragma once

#include <string>
#include <vector>

namespace bmr::mr {

enum class Phase {
  kMap,
  kShuffle,        // with-barrier: remote reads before the barrier
  kSortMerge,      // with-barrier: merge sort at the reducer
  kReduce,         // with-barrier: grouped reduce execution
  kShuffleReduce,  // barrier-less: pipelined fetch+reduce
  kOutput,         // final DFS write
  kFault,          // injected fault firing (chaos runs; start == end)
  kRecovery,       // lost map output relaunched (start == end)
};

const char* PhaseName(Phase phase);

struct TaskEvent {
  Phase phase;
  int task_id = 0;
  int node = -1;
  double start = 0;  // seconds since job start
  double end = 0;
};

/// Number of tasks in `phase` active at time t.
int ActiveAt(const std::vector<TaskEvent>& events, Phase phase, double t);

/// Render a per-phase activity table sampled every `step` seconds —
/// the textual form of Figure 4.
std::string RenderActivity(const std::vector<TaskEvent>& events, double step);

}  // namespace bmr::mr
