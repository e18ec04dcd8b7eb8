// Job-scoped metrics: one registry that every task of a run reports
// into (counters, heap samples, map completion times, output files,
// task events, dump requests) and one snapshot schema (`JobMetrics`)
// shared by the real engine, the benches, and the simulator, so real
// and simulated runs can be printed and compared through the same code
// path.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/mutex.h"
#include "common/stopwatch.h"
#include "common/thread_annotations.h"
#include "mr/timeline.h"
#include "mr/types.h"
#include "obs/trace.h"

namespace bmr::mr {

/// One (elapsed-time, reducer, bytes) heap sample — Fig. 5's raw data.
struct MemorySample {
  double t = 0;
  int reducer = 0;
  uint64_t bytes = 0;
};

/// Shuffle data-plane memory/encoding stats (GUIDE §13): the block
/// codec's byte counts for this job, and the process-wide pooled-memory
/// counters snapshotted at job end.  Exported as the bmr_codec_* /
/// bmr_arena_* gauge families.
struct DataPlaneStats {
  uint64_t codec_raw_bytes = 0;   ///< published segment bytes pre-codec
  uint64_t codec_wire_bytes = 0;  ///< same segments in container form
  uint64_t arena_allocated_bytes = 0;  ///< process-lifetime bump allocs
  uint64_t arena_chunk_reuses = 0;     ///< chunks recycled across resets
  uint64_t arena_buffer_reuses = 0;    ///< BufferPool freelist hits
  uint64_t arena_cached_bytes = 0;     ///< idle pooled capacity now
};

/// The common reporting schema of a job run — real (engine) or virtual
/// (simmr::ToJobMetrics).
struct JobMetrics {
  Counters counters;
  std::vector<TaskEvent> events;
  std::vector<MemorySample> memory_samples;
  std::vector<std::string> output_files;
  double elapsed_seconds = 0;
  double first_map_done = 0;
  double last_map_done = 0;
  /// Times Transport::Register overwrote a live handler during the run
  /// (exported as bmr_rpc_handler_reregistered_total; zero for simmr).
  uint64_t rpc_handler_reregistrations = 0;
  /// Shuffle codec/arena stats (zero for simmr — virtual bytes are not
  /// encoded).
  DataPlaneStats data_plane;

  /// Observability extension (populated only when the run had
  /// obs.trace=on; simmr fills spans from simulated TaskEvents).
  bool trace_enabled = false;
  obs::TraceLog trace;
  std::map<std::string, LogHistogram> histograms;
  /// Spans lost at the tracer's central-log cap (GUIDE §15); exported
  /// as bmr_obs_spans_dropped_total so span loss is never silent.
  uint64_t spans_dropped = 0;
  /// Why this job asked for a post-mortem flight dump (GUIDE §15):
  /// reducer restart, injected node crash, job failure.  Empty = none.
  std::vector<std::string> dump_reasons;
  /// Flight artifacts written at this job's end (0 or 1).
  uint64_t flight_dumps = 0;
};

/// Render the headline numbers of a JobMetrics as an aligned text
/// block; `label` distinguishes e.g. "real" from "simulated" runs.
std::string FormatJobMetrics(const std::string& label, const JobMetrics& m);

/// Thread-safe sink for everything a running job reports.  Owns the
/// job clock so that every sample and event shares one time base.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Seconds since the job clock (re)started.
  double Now() const { return clock_.ElapsedSeconds(); }
  /// Must happen-before any concurrent reporting (called once by the
  /// engine before tasks are submitted): the Stopwatch itself is
  /// unsynchronized.  Also restarts the tracer clock so spans and
  /// task events share one time base.
  void RestartClock() {
    clock_.Restart();
    tracer_.RestartClock();
  }

  /// Arm the span/latency tracer (the `obs.trace` knob).  Must
  /// happen-before concurrent reporting, like RestartClock.
  void EnableTracing(const obs::TracerOptions& options = {}) {
    tracer_.Enable(options);
  }
  /// The job's tracer — never null; a no-op sink until EnableTracing.
  obs::Tracer* tracer() const { return &tracer_; }

  void AddCounter(const char* name, uint64_t delta) BMR_EXCLUDES(mu_);
  void MergeCounters(const Counters& c) BMR_EXCLUDES(mu_);
  uint64_t GetCounter(const char* name) const BMR_EXCLUDES(mu_);

  void SampleMemory(int reducer, uint64_t bytes) BMR_EXCLUDES(mu_);
  void NoteMapDone() BMR_EXCLUDES(mu_);
  void NoteOutputFile(std::string path) BMR_EXCLUDES(mu_);
  void RecordEvent(Phase phase, int task_id, int node, double start,
                   double end) BMR_EXCLUDES(mu_);
  /// Ask for a flight dump of this job's record at its end; `reason`
  /// becomes a `flight.trigger` instant in the artifact.
  void RequestDump(std::string reason) BMR_EXCLUDES(mu_);

  /// Consistent copy of everything reported so far; stamps
  /// elapsed_seconds with Now().  When tracing is enabled the snapshot
  /// carries the span log and latency histograms too.
  JobMetrics Snapshot() const BMR_EXCLUDES(mu_);

 private:
  Stopwatch clock_;
  mutable obs::Tracer tracer_;  // internally synchronized
  mutable OrderedMutex mu_{"mr.metrics"};
  Counters counters_ BMR_GUARDED_BY(mu_);
  std::vector<MemorySample> samples_ BMR_GUARDED_BY(mu_);
  std::vector<std::string> output_files_ BMR_GUARDED_BY(mu_);
  std::vector<TaskEvent> events_ BMR_GUARDED_BY(mu_);
  std::vector<std::string> dump_reasons_ BMR_GUARDED_BY(mu_);
  double first_map_done_ BMR_GUARDED_BY(mu_) = 0;
  double last_map_done_ BMR_GUARDED_BY(mu_) = 0;
};

}  // namespace bmr::mr
