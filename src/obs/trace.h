// Job-scoped tracing + latency-metrics collector.
//
// One Tracer per job run (owned by the job's MetricsRegistry).  Spans
// are recorded into per-thread ring buffers (TraceBuffer) so the hot
// path takes only an uncontended leaf lock; full buffers flush into
// the tracer's central log, and CollectTrace() drains everything for
// export.  Latency samples land in named LogHistograms.
//
// Cost discipline: every recording entry point is gated on enabled()
// — a null check plus one relaxed atomic load when tracing is off; the
// runtime gate is the `obs.trace` job-config key.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/mutex.h"
#include "common/stopwatch.h"
#include "common/thread_annotations.h"
#include "obs/span.h"

namespace bmr::obs {

struct TracerOptions {
  /// Per-thread ring capacity in spans; a full ring flushes to the
  /// central log (one extra lock per `buffer_spans` spans).
  size_t buffer_spans = 4096;
  /// Cap on centrally retained spans; overflow is dropped and counted
  /// (exported as bmr_obs_spans_dropped_total).  Generous by default —
  /// the cap exists so a runaway traced job degrades to counted span
  /// loss instead of unbounded memory.
  size_t max_spans = 1 << 20;
};

class Tracer {
 public:
  Tracer();
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Turn recording on.  Must happen-before concurrent recording (the
  /// engine enables before tasks are submitted).
  void Enable(const TracerOptions& options = {});

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// The tracer's time base; the owner restarts it together with the
  /// job clock so spans and TaskEvents share one origin.  Unsynchronized
  /// like Stopwatch: restart happens-before concurrent recording.
  void RestartClock() { clock_.Restart(); }
  double Now() const { return clock_.ElapsedSeconds(); }

  /// Next tracer-unique span id (never 0).
  SpanId NextSpanId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// The job's root span, parent of every task span (set once by the
  /// engine before tasks launch).
  void SetRootSpan(SpanId id) { root_span_.store(id, std::memory_order_relaxed); }
  SpanId root_span() const { return root_span_.load(std::memory_order_relaxed); }

  /// Process-unique nonzero id naming this tracer on the wire (the
  /// trace-context block's trace_id).  Stable for the tracer's life.
  uint64_t trace_id() const { return generation_; }

  /// The context an outgoing RPC should carry: this tracer's trace id
  /// plus the calling thread's innermost open span (falling back to the
  /// root span).  Invalid (trace_id 0) when disabled, so untraced runs
  /// put nothing on the wire.
  TraceContext CurrentContext() const;

  /// Resolve a received wire context into an explicit span parent.
  /// Returns 0 (let ScopedSpan fall back to thread-current/root) for
  /// invalid contexts or frames stamped by a different tracer — a stale
  /// frame from an earlier job must not graft onto this job's tree.
  SpanId PropagatedParent(const TraceContext& ctx) const;

  /// Spans discarded at the central-log cap (TracerOptions::max_spans).
  uint64_t dropped_spans() const {
    return dropped_spans_.load(std::memory_order_relaxed);
  }

  /// Record one completed span.  `span.tid` is overwritten with the
  /// calling thread's lane.  No-op when disabled.
  void EmitSpan(Span span) BMR_EXCLUDES(registry_mu_, central_mu_);

  /// Record one latency sample into the named histogram.  `name` must
  /// be a static-lifetime constant from obs/metric_names.h.  No-op when
  /// disabled.
  void RecordLatency(const char* name, uint64_t micros)
      BMR_EXCLUDES(hist_mu_);

  /// Fold a locally-aggregated histogram into the named one (bulk
  /// variant of RecordLatency for single-threaded hot loops).
  void MergeHistogram(const char* name, const LogHistogram& h)
      BMR_EXCLUDES(hist_mu_);

  /// Flush every thread buffer and return a copy of all spans recorded
  /// so far plus the per-thread track list.  Safe to call repeatedly
  /// (online snapshots); spans accumulate in the central log.
  TraceLog CollectTrace() BMR_EXCLUDES(registry_mu_, central_mu_);

  std::map<std::string, LogHistogram> SnapshotHistograms() const
      BMR_EXCLUDES(hist_mu_);

 private:
  friend class ScopedSpan;

  struct ThreadBuffer {
    Mutex mu;
    int tid = 0;
    std::vector<Span> ring BMR_GUARDED_BY(mu);
  };

  /// This thread's buffer, registering it on first use.  Cached in a
  /// thread-local keyed by (tracer pointer, generation) so a recycled
  /// Tracer address can never alias a stale buffer.
  ThreadBuffer* LocalBuffer() BMR_EXCLUDES(registry_mu_);

  const uint64_t generation_;
  Stopwatch clock_;
  /// Append spans to the central log, dropping (and counting) past the
  /// max_spans_ cap.  Consumes the input.
  void FlushToCentral(std::vector<Span>* spans) BMR_EXCLUDES(central_mu_);

  std::atomic<bool> enabled_{false};
  std::atomic<SpanId> next_id_{0};
  std::atomic<SpanId> root_span_{0};
  std::atomic<uint64_t> dropped_spans_{0};
  size_t buffer_spans_ = 4096;  // written by Enable, before recording
  size_t max_spans_ = 1 << 20;  // written by Enable, before recording

  mutable Mutex registry_mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_
      BMR_GUARDED_BY(registry_mu_);
  int next_tid_ BMR_GUARDED_BY(registry_mu_) = 0;

  mutable Mutex central_mu_;
  std::vector<Span> central_ BMR_GUARDED_BY(central_mu_);

  mutable Mutex hist_mu_;
  std::map<std::string, LogHistogram> histograms_ BMR_GUARDED_BY(hist_mu_);
};

/// The calling thread's innermost open ScopedSpan (0 = none): the
/// implicit parent for same-thread nesting.
SpanId CurrentSpan();

/// RAII span: opens on construction, records on destruction.  Parent
/// defaults to the thread's current span, falling back to the tracer's
/// root span (cross-thread task spans pass an explicit parent).
/// Constructing with a null or disabled tracer costs two branches.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, const char* category,
             int64_t arg = -1, SpanId parent = 0);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// This span's id, for cross-thread children; 0 when not recording.
  SpanId id() const { return span_.id; }

 private:
  Tracer* tracer_ = nullptr;  // null when not recording
  Span span_;
  SpanId prev_current_ = 0;  // restored on close (nesting stack)
};

/// RAII latency sample: times construction → destruction into the
/// named histogram.  Null/disabled tracer = two branches.
class LatencyTimer {
 public:
  LatencyTimer(Tracer* tracer, const char* name)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        name_(name) {
    if (tracer_ != nullptr) watch_.Restart();
  }
  ~LatencyTimer() {
    if (tracer_ != nullptr) {
      tracer_->RecordLatency(name_,
                             static_cast<uint64_t>(watch_.ElapsedMicros()));
    }
  }

  LatencyTimer(const LatencyTimer&) = delete;
  LatencyTimer& operator=(const LatencyTimer&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  Stopwatch watch_;
};

}  // namespace bmr::obs
