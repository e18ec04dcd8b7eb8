#include "obs/trace.h"

#include <utility>

namespace bmr::obs {
namespace {

// Monotonic tracer generation: the thread-local cache below is keyed
// on (tracer pointer, generation), so a Tracer constructed at a
// recycled address can never alias a dead tracer's buffer.
std::atomic<uint64_t> g_tracer_generation{0};

struct TlsCache {
  const void* tracer = nullptr;
  uint64_t generation = 0;
  void* buffer = nullptr;
};
thread_local TlsCache t_buffer_cache;

// Innermost open ScopedSpan on this thread (implicit parent chain).
thread_local SpanId t_current_span = 0;

}  // namespace

Tracer::Tracer()
    : generation_(g_tracer_generation.fetch_add(1,
                                                std::memory_order_relaxed) +
                  1) {}

Tracer::~Tracer() = default;

void Tracer::Enable(const TracerOptions& options) {
  buffer_spans_ = options.buffer_spans > 0 ? options.buffer_spans : 1;
  max_spans_ = options.max_spans > 0 ? options.max_spans : 1;
  enabled_.store(true, std::memory_order_release);
}

TraceContext Tracer::CurrentContext() const {
  TraceContext ctx;
  if (!enabled()) return ctx;
  ctx.trace_id = generation_;
  SpanId current = t_current_span;
  ctx.parent_span = current != 0 ? current : root_span();
  ctx.flags = kTraceFlagSampled;
  return ctx;
}

SpanId Tracer::PropagatedParent(const TraceContext& ctx) const {
  if (!enabled() || !ctx.valid() || ctx.trace_id != generation_) return 0;
  return ctx.parent_span;
}

Tracer::ThreadBuffer* Tracer::LocalBuffer() {
  TlsCache& cache = t_buffer_cache;
  if (cache.tracer == this && cache.generation == generation_) {
    return static_cast<ThreadBuffer*>(cache.buffer);
  }
  auto buffer = std::make_unique<ThreadBuffer>();
  ThreadBuffer* raw = buffer.get();
  {
    MutexLock lock(registry_mu_);
    raw->tid = next_tid_++;
    buffers_.push_back(std::move(buffer));
  }
  cache.tracer = this;
  cache.generation = generation_;
  cache.buffer = raw;
  return raw;
}

void Tracer::EmitSpan(Span span) {
  if (!enabled()) return;
  ThreadBuffer* buffer = LocalBuffer();
  span.tid = buffer->tid;
  std::vector<Span> overflow;
  {
    MutexLock lock(buffer->mu);
    buffer->ring.push_back(span);
    if (buffer->ring.size() >= buffer_spans_) {
      overflow.swap(buffer->ring);
      buffer->ring.reserve(buffer_spans_);
    }
  }
  if (!overflow.empty()) {
    // Central lock taken with the buffer lock already released — the
    // two never nest, so neither order edge exists.
    FlushToCentral(&overflow);
  }
}

void Tracer::FlushToCentral(std::vector<Span>* spans) {
  size_t dropped = 0;
  {
    MutexLock lock(central_mu_);
    size_t room =
        central_.size() < max_spans_ ? max_spans_ - central_.size() : 0;
    size_t take = spans->size() < room ? spans->size() : room;
    central_.insert(central_.end(), spans->begin(), spans->begin() + take);
    dropped = spans->size() - take;
  }
  if (dropped > 0) {
    dropped_spans_.fetch_add(dropped, std::memory_order_relaxed);
  }
  spans->clear();
}

void Tracer::RecordLatency(const char* name, uint64_t micros) {
  if (!enabled()) return;
  MutexLock lock(hist_mu_);
  histograms_[name].Add(micros);
}

void Tracer::MergeHistogram(const char* name, const LogHistogram& h) {
  if (!enabled() || h.count() == 0) return;
  MutexLock lock(hist_mu_);
  histograms_[name].Merge(h);
}

TraceLog Tracer::CollectTrace() {
  TraceLog log;
  std::vector<ThreadBuffer*> buffers;
  {
    MutexLock lock(registry_mu_);
    buffers.reserve(buffers_.size());
    for (const auto& b : buffers_) buffers.push_back(b.get());
    for (int tid = 0; tid < next_tid_; ++tid) {
      log.tracks.push_back({/*pid=*/1, tid, "worker-" + std::to_string(tid)});
    }
  }
  // Flush each thread's ring into the central log.  Concurrent
  // recorders may add spans after their buffer is drained; those show
  // up in the next snapshot — CollectTrace is a consistent prefix, not
  // a barrier.
  for (ThreadBuffer* buffer : buffers) {
    std::vector<Span> drained;
    {
      MutexLock lock(buffer->mu);
      drained.swap(buffer->ring);
    }
    if (!drained.empty()) {
      FlushToCentral(&drained);
    }
  }
  {
    MutexLock lock(central_mu_);
    log.spans = central_;
  }
  return log;
}

std::map<std::string, LogHistogram> Tracer::SnapshotHistograms() const {
  MutexLock lock(hist_mu_);
  return histograms_;
}

SpanId CurrentSpan() { return t_current_span; }

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, const char* category,
                       int64_t arg, SpanId parent) {
  if (tracer == nullptr || !tracer->enabled()) return;
  tracer_ = tracer;
  span_.id = tracer->NextSpanId();
  span_.parent = parent != 0
                     ? parent
                     : (t_current_span != 0 ? t_current_span
                                            : tracer->root_span());
  span_.name = name;
  span_.category = category;
  span_.arg = arg;
  span_.start_s = tracer->Now();
  prev_current_ = t_current_span;
  t_current_span = span_.id;
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  t_current_span = prev_current_;
  span_.end_s = tracer_->Now();
  tracer_->EmitSpan(span_);
}

}  // namespace bmr::obs
