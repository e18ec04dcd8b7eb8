#include "mr/obs_export.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <set>

#include "obs/metric_names.h"
#include "obs/validate.h"

namespace bmr::mr {
namespace {

// Task-phase lanes render in a separate Perfetto process so the
// fine-grained engine-thread spans (pid 1) and the coarse per-task
// phase bars (pid 2) do not interleave on one lane.
constexpr int kTaskPid = 2;

/// Keep the `n` most recently finished spans and counter samples of
/// `log`, taking from whichever list ends later.
void KeepLast(obs::TraceLog* log, size_t n) {
  std::vector<obs::Span>& spans = log->spans;
  std::vector<obs::CounterSample>& counters = log->counters;
  if (spans.size() + counters.size() <= n) return;
  std::stable_sort(spans.begin(), spans.end(),
                   [](const obs::Span& a, const obs::Span& b) {
                     return a.end_s < b.end_s;
                   });
  std::stable_sort(counters.begin(), counters.end(),
                   [](const obs::CounterSample& a,
                      const obs::CounterSample& b) { return a.t_s < b.t_s; });
  size_t s = spans.size();
  size_t c = counters.size();
  for (; n > 0; --n) {
    if (c == 0 || (s > 0 && spans[s - 1].end_s >= counters[c - 1].t_s)) {
      --s;
    } else {
      --c;
    }
  }
  spans.erase(spans.begin(), spans.begin() + s);
  counters.erase(counters.begin(), counters.begin() + c);
}

}  // namespace

obs::TraceLog BuildTraceLog(const JobMetrics& m) {
  obs::TraceLog log = m.trace;

  obs::SpanId next_id = 1;
  for (const obs::Span& s : log.spans) next_id = std::max(next_id, s.id + 1);

  std::set<int> task_lanes;
  for (const TaskEvent& ev : m.events) {
    obs::Span span;
    span.id = next_id++;
    span.parent = 0;
    span.name = PhaseName(ev.phase);
    span.category = "task";
    span.pid = kTaskPid;
    span.tid = ev.task_id;
    span.arg = ev.task_id;
    span.start_s = ev.start;
    span.end_s = std::max(ev.end, ev.start);
    log.spans.push_back(span);
    task_lanes.insert(ev.task_id);
  }
  for (int tid : task_lanes) {
    log.tracks.push_back({kTaskPid, tid, "task-" + std::to_string(tid)});
  }

  for (const MemorySample& s : m.memory_samples) {
    log.counters.push_back({"heap_bytes_r" + std::to_string(s.reducer),
                            kTaskPid, s.reducer, s.t,
                            static_cast<double>(s.bytes)});
  }
  return log;
}

obs::MetricsSnapshot BuildMetricsSnapshot(const JobMetrics& m) {
  obs::MetricsSnapshot snap;
  snap.counters = m.counters.values();
  snap.histograms = m.histograms;
  snap.gauges[obs::kPromJobElapsedSeconds] = m.elapsed_seconds;
  snap.gauges[obs::kPromJobFirstMapDoneSeconds] = m.first_map_done;
  snap.gauges[obs::kPromJobLastMapDoneSeconds] = m.last_map_done;
  snap.gauges[obs::kPromRpcHandlerReregistered] =
      static_cast<double>(m.rpc_handler_reregistrations);
  uint64_t peak = 0;
  for (const MemorySample& s : m.memory_samples) peak = std::max(peak, s.bytes);
  snap.gauges[obs::kPromReducerHeapPeakBytes] = static_cast<double>(peak);
  const DataPlaneStats& dp = m.data_plane;
  snap.gauges[obs::kPromCodecRawBytes] = static_cast<double>(dp.codec_raw_bytes);
  snap.gauges[obs::kPromCodecWireBytes] =
      static_cast<double>(dp.codec_wire_bytes);
  snap.gauges[obs::kPromArenaAllocatedBytes] =
      static_cast<double>(dp.arena_allocated_bytes);
  snap.gauges[obs::kPromArenaChunkReuseTotal] =
      static_cast<double>(dp.arena_chunk_reuses);
  snap.gauges[obs::kPromArenaBufferReuseTotal] =
      static_cast<double>(dp.arena_buffer_reuses);
  snap.gauges[obs::kPromArenaCachedBytes] =
      static_cast<double>(dp.arena_cached_bytes);
  // Observability self-metrics (GUIDE §15): traced runs always expose
  // the span-loss counter — 0 is the interesting common case, nonzero
  // means the trace is a sampled prefix.
  if (m.trace_enabled) {
    snap.counters[obs::kPromObsSpansDropped] = m.spans_dropped;
  }
  if (m.flight_dumps > 0) {
    snap.counters[obs::kPromObsFlightDumps] = m.flight_dumps;
  }
  return snap;
}

Status WriteTraceArtifacts(const JobMetrics& m,
                           const std::string& trace_json_path,
                           const std::string& prom_text_path) {
  const std::string json = obs::PerfettoTraceJson(BuildTraceLog(m));
  Status s = obs::ValidatePerfettoJson(json);
  if (!s.ok()) return s;
  const std::string prom = obs::PrometheusText(BuildMetricsSnapshot(m));
  s = obs::ValidatePrometheusText(prom);
  if (!s.ok()) return s;

  std::ofstream trace_out(trace_json_path, std::ios::trunc);
  trace_out << json;
  trace_out.close();
  if (!trace_out) {
    return Status::Internal("cannot write " + trace_json_path);
  }
  std::ofstream prom_out(prom_text_path, std::ios::trunc);
  prom_out << prom;
  prom_out.close();
  if (!prom_out) {
    return Status::Internal("cannot write " + prom_text_path);
  }
  return Status::Ok();
}

std::string FlightTraceJson(const JobMetrics& m, size_t last_n) {
  obs::TraceLog log = BuildTraceLog(m);
  size_t triggers = m.dump_reasons.size();
  if (last_n > 0) {
    triggers = std::min(triggers, last_n);
    KeepLast(&log, last_n - triggers);
  }
  for (size_t i = m.dump_reasons.size() - triggers; i < m.dump_reasons.size();
       ++i) {
    log.instants.push_back({m.dump_reasons[i], obs::kFlightTriggerCategory,
                            kTaskPid, 0, m.elapsed_seconds});
  }
  return obs::PerfettoTraceJson(log);
}

StatusOr<std::string> WriteFlightArtifact(const JobMetrics& m,
                                          const std::string& dir) {
  static std::atomic<uint64_t> seq{0};
  const std::string path = dir + "/flight_" + std::to_string(getpid()) + "_" +
                           std::to_string(seq.fetch_add(1)) + ".json";
  std::ofstream out(path, std::ios::trunc);
  out << FlightTraceJson(m, kFlightEvents);
  out.close();
  if (!out) return Status::Internal("cannot write flight artifact " + path);
  return path;
}

}  // namespace bmr::mr
