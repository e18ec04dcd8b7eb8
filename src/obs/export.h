// Trace/metrics exporters: Chrome/Perfetto `trace_event` JSON and
// Prometheus text exposition.  Both consume plain obs types, so the
// real engine and simmr render through the same pipeline (each side
// adapts its JobMetrics via mr/obs_export.h).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/histogram.h"
#include "obs/span.h"

namespace bmr::obs {

/// Everything the Prometheus exporter needs: raw engine counters
/// (mapped to series names by PrometheusText — see obs/metric_names.h
/// for the policy), latency histograms keyed by their series name, and
/// job-level gauges already carrying their series name.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, LogHistogram> histograms;
  std::map<std::string, double> gauges;
};

/// Serialize a TraceLog as Chrome trace-event JSON ("X" complete
/// events + "M" process/thread metadata + "C" counter tracks + "i"
/// instants), loadable
/// in Perfetto / chrome://tracing.  Spans are sorted by start time, so
/// event timestamps are monotonic.  Timestamps are microseconds on the
/// job clock.
std::string PerfettoTraceJson(const TraceLog& log);

/// Serialize a MetricsSnapshot as Prometheus text exposition v0.0.4.
/// Mapping policy: counter `fault_injected_<kind>` becomes the labeled
/// family bmr_faults_injected_total{kind="<kind>"}; a counter already
/// carrying the bmr_ prefix is a full series name (labels allowed) and
/// passes through verbatim; every other counter `<name>` becomes
/// bmr_job_<name>_total; histograms emit _bucket{le=...}/_sum/_count
/// on their own (already bmr_-prefixed) name; gauges pass through.
/// TYPE lines always name the bare family (labels stripped), once per
/// family.
std::string PrometheusText(const MetricsSnapshot& snap);

/// Human-readable one-line-per-histogram summary (count, mean, p50,
/// p95, p99, max) for run reports; the p* values are log-bucket upper
/// bounds (see GUIDE §10 for how to read them).
std::string FormatHistogramSummaries(
    const std::map<std::string, LogHistogram>& histograms);

}  // namespace bmr::obs
