// JobMetrics → obs adapter: turns the engine/simmr reporting schema
// into the plain structures the obs exporters consume, so one pipeline
// renders real and simulated runs (ISSUE 5 tentpole piece 3).
#pragma once

#include <cstddef>
#include <string>

#include "common/status.h"
#include "mr/metrics.h"
#include "obs/export.h"
#include "obs/span.h"

namespace bmr::mr {

/// Build the full trace view of a run: the tracer's fine-grained spans
/// (when the run had obs.trace=on), plus one span lane per task-phase
/// TaskEvent (pid 2 — present for every run, including simmr, whose
/// "trace" is exactly its simulated timeline), plus the reducer heap
/// samples as Perfetto counter tracks.
obs::TraceLog BuildTraceLog(const JobMetrics& m);

/// Build the Prometheus-facing snapshot: engine counters verbatim
/// (PrometheusText applies the naming policy, incl. the
/// fault_injected_<kind> → labeled-family mapping), the latency
/// histograms, and job-level gauges (elapsed, map-done marks, peak
/// reducer heap).
obs::MetricsSnapshot BuildMetricsSnapshot(const JobMetrics& m);

/// Convenience: serialize + self-validate both artifacts.
[[nodiscard]] Status WriteTraceArtifacts(const JobMetrics& m,
                                         const std::string& trace_json_path,
                                         const std::string& prom_text_path);

/// Events a flight artifact keeps (GUIDE §15).
inline constexpr size_t kFlightEvents = 4096;

/// The flight view of a run as Perfetto JSON: BuildTraceLog(m) cut to
/// its `last_n` most recently finished spans and counter samples
/// (0 = all), plus one obs::kFlightTriggerCategory instant per dump
/// reason at the job's end.  The instants count toward `last_n`.
std::string FlightTraceJson(const JobMetrics& m, size_t last_n);

/// Write FlightTraceJson(m, kFlightEvents) to
/// `dir`/flight_<pid>_<seq>.json, where seq counts this process's
/// artifacts, and return the path.
[[nodiscard]] StatusOr<std::string> WriteFlightArtifact(
    const JobMetrics& m, const std::string& dir);

}  // namespace bmr::mr
