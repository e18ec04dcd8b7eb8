// Discrete-event model of Hadoop-0.20-style execution — with and
// without the stage barrier — on a configurable cluster.
//
// Task lifecycle (with barrier), per §2–3 of the paper:
//   map task:    read local block → map fn → sort output → write local
//   reduce task: occupy a slot from job start; fetch each mapper's
//                segment as that mapper finishes (eager shuffle);
//                BARRIER; merge-sort all buffers; grouped reduce;
//                write output to DFS.
// Without barrier, the reduce task folds records into partial results
// as segments arrive (no map-side or reduce-side sort), then emits the
// finished keys and writes output.  Partial-result memory follows the
// job's MemClass and the configured overflow store, including spill
// pauses, KV-store per-op costs, and the in-memory OOM kill.
#pragma once

#include <vector>

#include "cluster/cluster.h"
#include "common/status.h"
#include "mr/metrics.h"
#include "mr/timeline.h"
#include "simmr/model.h"

namespace bmr::simmr {

struct SimResult {
  Status status;
  double completion_seconds = 0;
  double first_map_done = 0;
  double last_map_done = 0;
  /// Virtual time at which the job died of reducer OOM (if it did).
  double failure_time = 0;
  bool failed_oom = false;
  /// Mapper slack (§3.2): gap between first mapper completion and
  /// shuffle completion, max over reducers.
  double mapper_slack = 0;
  double shuffle_bytes = 0;
  /// Speculation accounting.
  int backups_launched = 0;
  int backups_won = 0;
  std::vector<mr::TaskEvent> events;
  std::vector<SimMemorySample> memory_samples;

  bool ok() const { return status.ok(); }
};

/// Run one simulated job on the given cluster.  Deterministic in
/// (job.seed, cluster).
SimResult SimulateJob(const cluster::ClusterSpec& cluster, const SimJob& job);

/// Project a SimResult onto the reporting schema shared with the real
/// engine (mr::MetricsRegistry::Snapshot, the base of mr::JobResult),
/// using the engine's counter names, so real and simulated runs print
/// and compare through one code path.
mr::JobMetrics ToJobMetrics(const SimResult& result);

}  // namespace bmr::simmr
