#include "mr/shuffle_service.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "common/arena.h"

namespace bmr::mr {

ShuffleService::ShuffleService(net::Transport* transport, int num_nodes,
                               int num_map_tasks, int job_id, Options options)
    : transport_(transport),
      num_nodes_(num_nodes),
      job_id_(job_id),
      options_(options),
      tracker_(num_map_tasks) {
  if (options_.codec == nullptr) {
    const char* env = std::getenv("BMR_SHUFFLE_CODEC");
    // Unknown env values fall back to "none": the env var is a test
    // override, not job configuration — the engine validates the
    // shuffle.codec knob properly and fails the job on a typo.
    auto codec = FindCodec(env == nullptr ? "" : env);
    options_.codec = codec.ok() ? *codec : *FindCodec("none");
  }
  stores_.resize(num_nodes);
  for (int n = 0; n < num_nodes; ++n) {
    stores_[n] = std::make_unique<MapOutputStore>();
    RegisterShuffleService(transport_, n, stores_[n].get(), job_id_,
                           options_.injector);
  }
}

ShuffleService::~ShuffleService() {
  for (int n = 0; n < num_nodes_; ++n) {
    UnregisterShuffleService(transport_, n, job_id_);
  }
}

void ShuffleService::Publish(int map_task, int node,
                             std::vector<std::string> segments) {
  {
    obs::LatencyTimer encode_time(options_.tracer, obs::kHCodecEncodeUs);
    ByteBuffer scratch;
    for (size_t p = 0; p < segments.size(); ++p) {
      scratch.Clear();
      SegmentEncodeStats stats;
      EncodeShuffleSegment(Slice(segments[p]), *options_.codec,
                           options_.block_bytes, &scratch, &stats);
      std::string().swap(segments[p]);  // free the raw stream now
      std::shared_ptr<std::string> buf =
          BufferPool::Global()->Acquire(scratch.size());
      if (scratch.size() != 0) {
        std::memcpy(buf->data(), scratch.data(), scratch.size());
      }
      stores_[node]->Put(map_task, static_cast<int>(p), std::move(buf));
      // Counted before MarkDone: once the last map is fetchable the
      // job's totals are complete.
      encoded_raw_bytes_.fetch_add(stats.raw_bytes);
      encoded_wire_bytes_.fetch_add(stats.wire_bytes);
    }
  }
  // Only after every partition is stored: a fetcher woken by MarkDone
  // must find its segment.
  tracker_.MarkDone(map_task, node);
}

ShuffleService::Fetch::~Fetch() {
  Join();
  MutexLock lock(service_->sinks_mu_);
  std::erase(service_->live_fetches_, this);
}

std::unique_ptr<ShuffleService::Fetch> ShuffleService::StartFetch(
    int r, int node, ShuffleSink* sink, RelaunchFn relaunch, ErrorFn on_error,
    obs::SpanId parent_span) {
  // No public constructor: make_unique can't reach it.
  auto fetch = std::unique_ptr<Fetch>(
      new Fetch(this, sink, tracker_.num_map_tasks()));
  {
    MutexLock lock(sinks_mu_);
    live_fetches_.push_back(fetch.get());
  }
  for (int c = 0; c < kFetchCopies; ++c) {
    fetch->copiers_.Submit([=, this, f = fetch.get()] {
      RunCopier(f, r, node, relaunch, on_error, parent_span);
    });
  }
  return fetch;
}

void ShuffleService::RunCopier(Fetch* f, int r, int node,
                               const RelaunchFn& relaunch,
                               const ErrorFn& on_error,
                               obs::SpanId parent_span) {
  for (MapOutputTracker::Entry loc; tracker_.Next(&f->cursor_, &loc);) {
    const int m = loc.map;
    for (int failures = 0;; ++failures) {  // of this attempt, in a row
      std::string segment;
      Status st = options_.injector
                      ? options_.injector->OnShuffleFetch(loc.node, node, m)
                      : Status::Ok();
      if (st.ok()) {
        obs::ScopedSpan fetch_span(options_.tracer, obs::kSpanShuffleFetch,
                                   "shuffle", m, parent_span);
        obs::LatencyTimer rtt(options_.tracer, obs::kHShuffleFetchRttUs);
        st = FetchSegment(transport_, loc.node, node, m, r, &segment, job_id_);
      }
      RecordBatch batch;
      if (st.ok()) {
        // Unwrap the block container: verify every block checksum,
        // decompress into a pool-backed buffer, then decode the
        // record framing zero-copy — the batch shares the pooled
        // buffer and the last batch standing recycles it.
        std::shared_ptr<const std::string> raw;
        {
          obs::LatencyTimer decode_time(options_.tracer, obs::kHCodecDecodeUs);
          st = DecodeShuffleSegment(Slice(segment), &raw);
        }
        if (st.ok()) st = DecodeSegment(std::move(raw), &batch);
      }
      if (st.ok()) {
        f->bytes_.fetch_add(segment.size());  // wire (encoded) bytes
        // Claim the attempt before handing records to the sink, so a
        // concurrent loss report can never miss us; a re-run of a map
        // this fetch already consumed is dropped here.
        if (NoteDelivered(f, m, loc.version)) {
          f->sink_->Accept(m, std::move(batch));
        }
        break;
      }
      if (options_.fail_on_fetch_error) {
        on_error(st);
        tracker_.Stop(&f->cursor_);
        break;
      }
      if (failures == options_.max_fetch_retries) {
        // Retries exhausted: the attempt's output is gone (node died or
        // segments unreadable).  Declare it lost — first reporter taints
        // any reducer that already consumed it and triggers
        // re-execution, whose commit lands in the log as a new entry.
        if (tracker_.ReportLost(m, loc.version)) {
          TaintConsumers(m, loc.version);
          relaunch(m, loc.node);
        }
        break;
      }
      f->retries_.fetch_add(1);
      double ms = std::min(
          options_.backoff_ms * static_cast<double>(1 << failures),
          options_.backoff_max_ms);
      if (!tracker_.Backoff(&f->cursor_, ms)) break;
    }
  }
  if (f->copiers_left_.fetch_sub(1) == 1) f->sink_->AllDelivered();
}

void ShuffleService::Cancel() {
  tracker_.Cancel();
  MutexLock lock(sinks_mu_);
  for (Fetch* f : live_fetches_) f->sink_->Cancel();
}

bool ShuffleService::NoteDelivered(Fetch* f, int map_task, int version) {
  {
    MutexLock lock(sinks_mu_);
    if (f->delivered_[map_task] >= 0) return false;
    f->delivered_[map_task] = version;
    if (--f->undelivered_ > 0) return true;
  }
  tracker_.Stop(&f->cursor_);
  return true;
}

void ShuffleService::TaintConsumers(int map_task, int version) {
  MutexLock lock(sinks_mu_);
  for (Fetch* f : live_fetches_) {
    if (f->delivered_[map_task] == version) {
      f->tainted_.store(true);
      f->sink_->Cancel();
    }
  }
}

}  // namespace bmr::mr
