// Plain-data trace types shared by the tracer, the exporters, and the
// validators.  A Span is one closed interval on one thread lane,
// causally linked to its parent by id — the job → task →
// fetch/batch/store-op hierarchy of docs/GUIDE.md §10.  A TraceLog is
// everything one run recorded, ready for export.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace bmr::obs {

/// Tracer-unique span identifier; 0 means "no span".
using SpanId = uint32_t;

/// The trace-context block carried on the wire (BMRF optional trailer,
/// GUIDE §15): enough for a receiving node to open handler spans under
/// the sender's open span, stitching one causal tree across address
/// spaces.  `trace_id` identifies the recording tracer (0 = no context
/// / untraced frame), `parent_span` is the sender's innermost open
/// span, `flags` bit 0 = sampled.
struct TraceContext {
  uint64_t trace_id = 0;
  SpanId parent_span = 0;
  uint8_t flags = 0;

  bool valid() const { return trace_id != 0; }
};

/// TraceContext::flags bit 0: the sender was actively recording.
inline constexpr uint8_t kTraceFlagSampled = 0x1;

/// One completed span.  `name` and `category` must be static-lifetime
/// strings (metric/span name constants), so recording a span never
/// allocates.
struct Span {
  SpanId id = 0;
  SpanId parent = 0;  // 0 = root (no parent)
  const char* name = "";
  const char* category = "";
  int pid = 1;    // Perfetto process lane (1 = engine threads)
  int tid = 0;    // tracer-assigned thread lane
  int64_t arg = -1;  // task / mapper / partition id; -1 = none
  double start_s = 0;  // seconds on the owning job clock
  double end_s = 0;
};

/// Display name of one (pid, tid) lane.
struct TrackInfo {
  int pid = 1;
  int tid = 0;
  std::string name;
};

/// One sample of a numeric counter track (Perfetto "C" events — e.g.
/// the per-reducer heap curve of Fig. 5).
struct CounterSample {
  std::string name;
  int pid = 1;
  int tid = 0;
  double t_s = 0;
  double value = 0;
};

/// One instantaneous marker with owned text (Perfetto "i" events) —
/// e.g. a flight dump's trigger reason, which names a failure and so
/// cannot be a static-lifetime Span name.
struct Instant {
  std::string name;
  std::string category;
  int pid = 1;
  int tid = 0;
  double t_s = 0;
};

/// Everything one run traced.  Exporters consume this; the engine
/// fills it from the tracer (fine-grained spans) and its task events
/// (task-phase lanes), and simmr fills it from simulated TaskEvents —
/// both render through the same pipeline.
struct TraceLog {
  std::vector<Span> spans;
  std::vector<TrackInfo> tracks;
  std::vector<CounterSample> counters;
  std::vector<Instant> instants;

  bool empty() const { return spans.empty() && counters.empty(); }
};

}  // namespace bmr::obs
