#include "layers.h"

#include <algorithm>
#include <memory>
#include <thread>
#include <utility>

#include "common/codec.h"
#include "core/barrierless_driver.h"
#include "mr/input.h"
#include "mr/map_output.h"
#include "mr/segment_codec.h"
#include "mr/shuffle.h"
#include "mr/shuffle_service.h"

namespace e2ebench {

using bmr::ByteBuffer;
using bmr::Config;
using bmr::Slice;
using bmr::mr::Counters;
using bmr::mr::Record;
using bmr::mr::RecordBatch;

namespace {

constexpr double kMiB = 1048576.0;

uint64_t NsBetween(Clock::time_point a, Clock::time_point b) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

// ---------------------------------------------------------------------
// In-job decorators.  Each task gets its own decorator instance, so the
// per-call bookkeeping is thread-local; totals are published to the
// shared AppTrace when the engine destroys the instance at task end.

void NoteFirstReduce(AppTrace* trace) {
  uint64_t ns = NsBetween(trace->job_start, Clock::now());
  uint64_t current = trace->first_reduce_ns.load();
  while (ns < current &&
         !trace->first_reduce_ns.compare_exchange_weak(current, ns)) {
  }
}

/// Per-instance call accounting shared by the three decorators.
struct CallStats {
  uint64_t calls = 0;
  uint64_t sampled = 0;
  uint64_t self_ns = 0;

  /// True when this call is to be timed.
  bool Next() { return calls++ % kSampleEvery == 0; }
  void AddSample(Clock::time_point start, uint64_t child_ns) {
    uint64_t total = NsBetween(start, Clock::now());
    self_ns += total > child_ns ? total - child_ns : 0;
    ++sampled;
  }
  void Publish(std::atomic<uint64_t>* calls_out,
               std::atomic<uint64_t>* sampled_out,
               std::atomic<uint64_t>* self_out) const {
    *calls_out += calls;
    *sampled_out += sampled;
    *self_out += self_ns;
  }
};

/// Forwards to the engine's MapContext or ReduceContext, timing Emit
/// (engine work).
template <typename Context>
class TimedContext final : public Context {
 public:
  explicit TimedContext(Context* inner) : inner_(inner) {}
  void Emit(Slice key, Slice value) override {
    Clock::time_point start = Clock::now();
    inner_->Emit(key, value);
    child_ns += NsBetween(start, Clock::now());
  }
  const Config& config() const override { return inner_->config(); }
  Counters* counters() override { return inner_->counters(); }

  uint64_t child_ns = 0;

 private:
  Context* inner_;
};

class TimedEmitter final : public bmr::mr::ReduceEmitter {
 public:
  explicit TimedEmitter(bmr::mr::ReduceEmitter* inner) : inner_(inner) {}
  void Emit(Slice key, Slice value) override {
    Clock::time_point start = Clock::now();
    inner_->Emit(key, value);
    child_ns += NsBetween(start, Clock::now());
  }

  uint64_t child_ns = 0;

 private:
  bmr::mr::ReduceEmitter* inner_;
};

class TimedMapper final : public bmr::mr::Mapper {
 public:
  TimedMapper(std::unique_ptr<bmr::mr::Mapper> inner, AppTrace* trace)
      : inner_(std::move(inner)), trace_(trace) {}
  ~TimedMapper() override {
    stats_.Publish(&trace_->map_calls, &trace_->map_sampled,
                   &trace_->map_self_ns);
  }
  TimedMapper(const TimedMapper&) = delete;
  TimedMapper& operator=(const TimedMapper&) = delete;

  void Setup(bmr::mr::MapContext* ctx) override { inner_->Setup(ctx); }
  void Map(Slice key, Slice value, bmr::mr::MapContext* ctx) override {
    if (!stats_.Next()) {
      inner_->Map(key, value, ctx);
      return;
    }
    TimedContext<bmr::mr::MapContext> timed(ctx);
    Clock::time_point start = Clock::now();
    inner_->Map(key, value, &timed);
    stats_.AddSample(start, timed.child_ns);
  }
  void Cleanup(bmr::mr::MapContext* ctx) override { inner_->Cleanup(ctx); }

 private:
  std::unique_ptr<bmr::mr::Mapper> inner_;
  AppTrace* trace_;
  CallStats stats_;
};

class TimedReducer final : public bmr::mr::Reducer {
 public:
  TimedReducer(std::unique_ptr<bmr::mr::Reducer> inner, AppTrace* trace)
      : inner_(std::move(inner)), trace_(trace) {}
  ~TimedReducer() override {
    stats_.Publish(&trace_->reduce_calls, &trace_->reduce_sampled,
                   &trace_->reduce_self_ns);
  }
  TimedReducer(const TimedReducer&) = delete;
  TimedReducer& operator=(const TimedReducer&) = delete;

  void Setup(bmr::mr::ReduceContext* ctx) override { inner_->Setup(ctx); }
  void Reduce(Slice key, bmr::mr::ValuesIterator* values,
              bmr::mr::ReduceContext* ctx) override {
    if (stats_.calls == 0) NoteFirstReduce(trace_);
    if (!stats_.Next()) {
      inner_->Reduce(key, values, ctx);
      return;
    }
    // The values iterator is a thin view over the merged records; timing
    // each Next would cost more than it does, so it counts as self time.
    TimedContext<bmr::mr::ReduceContext> timed(ctx);
    Clock::time_point start = Clock::now();
    inner_->Reduce(key, values, &timed);
    stats_.AddSample(start, timed.child_ns);
  }
  void Cleanup(bmr::mr::ReduceContext* ctx) override { inner_->Cleanup(ctx); }

 private:
  std::unique_ptr<bmr::mr::Reducer> inner_;
  AppTrace* trace_;
  CallStats stats_;
};

class TimedIncremental final : public bmr::core::IncrementalReducer {
 public:
  TimedIncremental(std::unique_ptr<bmr::core::IncrementalReducer> inner,
                   AppTrace* trace)
      : inner_(std::move(inner)), trace_(trace) {}
  ~TimedIncremental() override {
    stats_.Publish(&trace_->update_calls, &trace_->update_sampled,
                   &trace_->update_self_ns);
  }
  TimedIncremental(const TimedIncremental&) = delete;
  TimedIncremental& operator=(const TimedIncremental&) = delete;

  void Setup(const Config& config) override { inner_->Setup(config); }
  bool UsesStore() const override { return inner_->UsesStore(); }
  std::string InitPartial(Slice key) override {
    return inner_->InitPartial(key);
  }
  void Update(Slice key, Slice value, std::string* partial,
              bmr::mr::ReduceEmitter* out) override {
    if (stats_.calls == 0) NoteFirstReduce(trace_);
    if (!stats_.Next()) {
      inner_->Update(key, value, partial, out);
      return;
    }
    TimedEmitter timed(out);
    Clock::time_point start = Clock::now();
    inner_->Update(key, value, partial, out ? &timed : nullptr);
    stats_.AddSample(start, timed.child_ns);
  }
  std::string MergePartials(Slice key, Slice a, Slice b) override {
    return inner_->MergePartials(key, a, b);
  }
  void Finish(Slice key, Slice partial, bmr::mr::ReduceEmitter* out) override {
    inner_->Finish(key, partial, out);
  }
  void Flush(bmr::mr::ReduceEmitter* out) override { inner_->Flush(out); }

 private:
  std::unique_ptr<bmr::core::IncrementalReducer> inner_;
  AppTrace* trace_;
  CallStats stats_;
};

// ---------------------------------------------------------------------
// Stage replay helpers.

/// Map output of one split, captured flat (one buffer, offsets) so the
/// replay can feed it to MapOutputCollector without per-record strings.
class CaptureContext final : public bmr::mr::MapContext {
 public:
  explicit CaptureContext(const Config& config) : config_(config) {}
  void Emit(Slice key, Slice value) override {
    index_.push_back({buffer_.size(), key.size(), value.size()});
    buffer_.append(key.data(), key.size());
    buffer_.append(value.data(), value.size());
  }
  const Config& config() const override { return config_; }
  Counters* counters() override { return &counters_; }

  size_t size() const { return index_.size(); }
  Slice key(size_t i) const {
    return Slice(buffer_.data() + index_[i].offset, index_[i].key_len);
  }
  Slice value(size_t i) const {
    return Slice(buffer_.data() + index_[i].offset + index_[i].key_len,
                 index_[i].value_len);
  }


 private:
  struct Entry {
    size_t offset;
    size_t key_len;
    size_t value_len;
  };
  const Config& config_;
  std::string buffer_;
  std::vector<Entry> index_;
  Counters counters_;
};

class DiscardEmitter final : public bmr::mr::ReduceEmitter {
 public:
  void Emit(Slice, Slice) override {}
};

class DiscardReduceContext final : public bmr::mr::ReduceContext {
 public:
  explicit DiscardReduceContext(const Config& config) : config_(config) {}
  void Emit(Slice, Slice) override {}
  const Config& config() const override { return config_; }
  Counters* counters() override { return &counters_; }

 private:
  const Config& config_;
  Counters counters_;
};

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t i = static_cast<size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(i, v.size() - 1)];
}

/// Time `call` until at least `min_calls` samples and `min_seconds`
/// have passed; returns per-call microseconds.
template <typename Fn>
StatusOr<std::vector<double>> SampleCalls(int min_calls, double min_seconds,
                                          Fn call) {
  std::vector<double> us;
  Clock::time_point begin = Clock::now();
  for (int i = 0; i < min_calls || Since(begin) < min_seconds; ++i) {
    Clock::time_point start = Clock::now();
    BMR_RETURN_IF_ERROR(call(i));
    us.push_back(1e-3 * static_cast<double>(NsBetween(start, Clock::now())));
  }
  return us;
}

/// What the map side of the replay produced for one split.
struct MapTask {
  std::vector<std::string> sorted;   // raw framed, per partition
  std::vector<std::string> encoded;  // unsorted, container form
};

/// The fold of partition 0 through a BarrierlessDriver with `store`.
struct FoldResult {
  double ns_per_record = 0;
  double finalize_s = 0;
  bmr::core::StoreStats stats;
};

StatusOr<FoldResult> Fold(const bmr::mr::JobSpec& spec,
                          const bmr::core::StoreConfig& store,
                          const std::vector<RecordBatch>& batches) {
  auto reducer = spec.incremental();
  bmr::core::BarrierlessDriver driver(reducer.get(), store, spec.config);
  DiscardEmitter out;
  uint64_t records = 0;
  Clock::time_point start = Clock::now();
  for (const RecordBatch& batch : batches) {
    for (const RecordBatch::Entry& e : batch) {
      BMR_RETURN_IF_ERROR(driver.Consume(e.key, e.value, &out));
      ++records;
    }
  }
  FoldResult result;
  result.ns_per_record =
      records ? 1e9 * Since(start) / static_cast<double>(records) : 0;
  start = Clock::now();
  BMR_RETURN_IF_ERROR(driver.Finalize(&out));
  result.finalize_s = Since(start);
  if (driver.store() != nullptr) result.stats = driver.store()->stats();
  return result;
}

}  // namespace

bmr::mr::JobSpec DecorateApp(bmr::mr::JobSpec spec, AppTrace* trace) {
  spec.mapper = [inner = spec.mapper, trace] {
    return std::make_unique<TimedMapper>(inner(), trace);
  };
  spec.reducer = [inner = spec.reducer, trace] {
    return std::make_unique<TimedReducer>(inner(), trace);
  };
  spec.incremental = [inner = spec.incremental, trace] {
    return std::make_unique<TimedIncremental>(inner(), trace);
  };
  return spec;
}

Status ReplayStages(const Workload& w, bmr::mr::ClusterContext* cluster,
                    Metrics* out) {
  // Map-side stages replay the first splits until this much map output
  // (or input) is captured; reduce-side stages replay partition 0 of it.
  constexpr size_t kMaxRecords = 2000000;
  constexpr uint64_t kMaxInputBytes = 16ull << 20;
  constexpr int kMinCalls = 256;
  constexpr double kMinCallSeconds = 0.5;

  const bmr::mr::JobSpec spec = MakeJob(w, true, "/unused");
  const std::vector<int> slaves = cluster->spec.SlaveIds();
  const int map_node = slaves.front();
  const int reduce_node = slaves.back();
  bmr::net::Transport* transport = cluster->transport.get();

  // dfs: write the input again under another prefix, then read all of
  // it through the map-input path (splits read on a node holding them).
  Clock::time_point start = Clock::now();
  BMR_RETURN_IF_ERROR(WriteInputs(cluster, w, "/replay"));
  out->push_back({"dfs.write_mb_per_s", w.input_bytes / kMiB / Since(start),
                  "MB/s"});
  for (const InputFile& f : w.files) {
    BMR_RETURN_IF_ERROR(cluster->client(map_node)->Delete("/replay" + f.path));
  }
  auto read_split = [&](const bmr::mr::InputSplit& split, auto on_record) {
    int node = split.preferred_nodes.empty() ? map_node
                                             : split.preferred_nodes.front();
    auto reader =
        bmr::mr::MakeReader(cluster->client(node), spec.input_kind, split);
    Record record;
    bool has = false;
    for (;;) {
      BMR_RETURN_IF_ERROR(reader->Next(&record, &has));
      if (!has) return Status::Ok();
      on_record(record);
    }
  };
  start = Clock::now();
  BMR_ASSIGN_OR_RETURN(
      std::vector<bmr::mr::InputSplit> splits,
      bmr::mr::PlanSplits(cluster->client(map_node), spec.input_files,
                          spec.input_kind, spec.split_bytes));
  uint64_t read_bytes = 0;
  for (const bmr::mr::InputSplit& split : splits) {
    BMR_RETURN_IF_ERROR(read_split(split, [&](const Record& r) {
      read_bytes += r.value.size() + 1;
    }));
  }
  out->push_back({"dfs.read_mb_per_s", read_bytes / kMiB / Since(start),
                  "MB/s"});

  // mr map side: collect, sort, encode; then decode what was encoded.
  const bmr::Codec* codec = *bmr::FindCodec("none");  // the engine default
  std::vector<MapTask> maps;
  size_t records = 0;
  uint64_t input_bytes = 0;
  double collect_s = 0, sort_s = 0, encode_s = 0;
  uint64_t raw_bytes = 0, wire_bytes = 0;
  for (const bmr::mr::InputSplit& split : splits) {
    if (records >= kMaxRecords || input_bytes >= kMaxInputBytes) break;
    input_bytes += split.length;
    CaptureContext captured(spec.config);
    auto mapper = spec.mapper();
    mapper->Setup(&captured);
    BMR_RETURN_IF_ERROR(read_split(split, [&](const Record& r) {
      mapper->Map(Slice(r.key), Slice(r.value), &captured);
    }));
    mapper->Cleanup(&captured);
    records += captured.size();

    bmr::mr::MapOutputCollector sorted(spec.num_reducers, spec.partitioner);
    bmr::mr::MapOutputCollector unsorted(spec.num_reducers, spec.partitioner);
    start = Clock::now();
    for (size_t i = 0; i < captured.size(); ++i) {
      sorted.Emit(captured.key(i), captured.value(i));
    }
    collect_s += Since(start);
    for (size_t i = 0; i < captured.size(); ++i) {
      unsorted.Emit(captured.key(i), captured.value(i));
    }
    start = Clock::now();
    BMR_ASSIGN_OR_RETURN(auto with_sort,
                         sorted.Finish(true, spec.sort_cmp, nullptr));
    sort_s += Since(start);
    BMR_ASSIGN_OR_RETURN(auto without_sort,
                         unsorted.Finish(false, spec.sort_cmp, nullptr));
    MapTask task;
    task.sorted = std::move(with_sort.segments);
    start = Clock::now();
    for (const std::string& raw : without_sort.segments) {
      ByteBuffer wire;
      bmr::mr::SegmentEncodeStats stats;
      bmr::mr::EncodeShuffleSegment(Slice(raw), *codec,
                                    bmr::mr::kDefaultShuffleBlockBytes, &wire,
                                    &stats);
      raw_bytes += stats.raw_bytes;
      wire_bytes += stats.wire_bytes;
      task.encoded.push_back(wire.ToString());
    }
    encode_s += Since(start);
    maps.push_back(std::move(task));
  }
  out->push_back({"mr.collect_ns_per_record",
                  records ? 1e9 * collect_s / static_cast<double>(records) : 0,
                  "ns"});
  out->push_back({"mr.map_sort_s", sort_s / maps.size(), "s"});
  out->push_back({"mr.encode_mb_per_s", raw_bytes / kMiB / encode_s, "MB/s"});

  std::vector<RecordBatch> partition0;  // decoded, in map order
  start = Clock::now();
  for (const MapTask& task : maps) {
    for (size_t p = 0; p < task.encoded.size(); ++p) {
      std::shared_ptr<const std::string> raw;
      BMR_RETURN_IF_ERROR(
          bmr::mr::DecodeShuffleSegment(Slice(task.encoded[p]), &raw));
      RecordBatch batch;
      BMR_RETURN_IF_ERROR(bmr::mr::DecodeSegment(std::move(raw), &batch));
      if (p == 0) partition0.push_back(std::move(batch));
    }
  }
  out->push_back({"mr.decode_mb_per_s", raw_bytes / kMiB / Since(start),
                  "MB/s"});

  // net + mr fetch: serve the encoded segments from the map node and
  // fetch them from the reduce node over the workload's transport.
  bmr::mr::MapOutputStore store;
  for (size_t m = 0; m < maps.size(); ++m) {
    for (size_t p = 0; p < maps[m].encoded.size(); ++p) {
      store.Put(static_cast<int>(m), static_cast<int>(p), maps[m].encoded[p]);
    }
  }
  const int job_id = cluster->AllocateJobId();
  bmr::mr::RegisterShuffleService(transport, map_node, &store, job_id);
  const int segments = static_cast<int>(maps.size()) * spec.num_reducers;
  auto fetch_one = [&](int i) {
    std::string segment;
    return bmr::mr::FetchSegment(transport, map_node, reduce_node,
                                 i % segments / spec.num_reducers,
                                 i % spec.num_reducers, &segment, job_id);
  };
  auto fetch_us = SampleCalls(kMinCalls, kMinCallSeconds, fetch_one);
  if (!fetch_us.ok()) {
    bmr::mr::UnregisterShuffleService(transport, map_node, job_id);
    return fetch_us.status();
  }
  out->push_back({"mr.fetch_us.p50", Percentile(*fetch_us, 0.5), "us"});
  out->push_back({"mr.fetch_us.p99", Percentile(*fetch_us, 0.99), "us"});

  const std::string method = "e2ebench.call";
  const std::string payload(wire_bytes / std::max(1, segments), 'x');
  transport->Register(map_node, method,
                      [&payload](Slice, ByteBuffer* response) {
                        response->Append(Slice(payload));
                        return Status::Ok();
                      });
  auto call_us = SampleCalls(kMinCalls, kMinCallSeconds, [&](int) {
    ByteBuffer response;
    return transport->Call(reduce_node, map_node, method, Slice("ping"),
                           &response);
  });
  transport->Unregister(map_node, method);
  if (!call_us.ok()) {
    bmr::mr::UnregisterShuffleService(transport, map_node, job_id);
    return call_us.status();
  }
  out->push_back({"net.call_us.p50", Percentile(*call_us, 0.5), "us"});
  out->push_back({"net.call_us.p99", Percentile(*call_us, 0.99), "us"});

  // mr FIFO: a producer thread fetches, decodes and pushes partition 0
  // of every replayed map; this thread pops and folds, as a reducer.
  bmr::mr::FifoSink sink(bmr::mr::kDefaultShuffleFifoBatches);
  double push_wait_s = 0;
  Status produced;
  std::thread producer([&] {
    for (size_t m = 0; m < maps.size() && produced.ok(); ++m) {
      std::string wire;
      std::shared_ptr<const std::string> raw;
      RecordBatch batch;
      produced = bmr::mr::FetchSegment(transport, map_node, reduce_node,
                                       static_cast<int>(m), 0, &wire, job_id);
      if (produced.ok()) {
        produced = bmr::mr::DecodeShuffleSegment(Slice(wire), &raw);
      }
      if (produced.ok()) {
        produced = bmr::mr::DecodeSegment(std::move(raw), &batch);
      }
      if (!produced.ok()) break;
      Clock::time_point push_start = Clock::now();
      sink.Accept(static_cast<int>(m), std::move(batch));
      push_wait_s += Since(push_start);
    }
    sink.AllDelivered();
  });
  double pop_wait_s = 0, busy_s = 0;
  Status consumed;
  {
    auto reducer = spec.incremental();
    bmr::core::BarrierlessDriver driver(reducer.get(), w.store, spec.config);
    DiscardEmitter discard;
    std::vector<RecordBatch> batches;
    for (;;) {
      Clock::time_point pop_start = Clock::now();
      size_t popped = sink.fifo().PopAll(&batches);
      pop_wait_s += Since(pop_start);
      if (popped == 0) break;
      Clock::time_point busy_start = Clock::now();
      for (const RecordBatch& batch : batches) {
        for (const RecordBatch::Entry& e : batch) {
          if (consumed.ok()) consumed = driver.Consume(e.key, e.value, &discard);
        }
      }
      batches.clear();
      busy_s += Since(busy_start);
    }
    if (consumed.ok()) consumed = driver.Finalize(&discard);
  }
  producer.join();
  bmr::mr::UnregisterShuffleService(transport, map_node, job_id);
  BMR_RETURN_IF_ERROR(produced);
  BMR_RETURN_IF_ERROR(consumed);
  out->push_back({"mr.fifo_push_wait_s", push_wait_s, "s"});
  out->push_back({"mr.fifo_pop_wait_s", pop_wait_s, "s"});
  out->push_back({"mr.consumer_bound_ratio",
                  busy_s + pop_wait_s > 0 ? busy_s / (busy_s + pop_wait_s) : 0,
                  "ratio"});

  // mr barrier path: merge partition 0's sorted runs, reduce by group.
  std::vector<std::vector<Record>> runs(maps.size());
  for (size_t m = 0; m < maps.size(); ++m) {
    BMR_RETURN_IF_ERROR(
        bmr::mr::DecodeSegment(Slice(maps[m].sorted[0]), &runs[m]));
  }
  start = Clock::now();
  std::vector<Record> merged =
      bmr::mr::MergeSortedRuns(std::move(runs), spec.sort_cmp);
  out->push_back({"mr.merge_s", Since(start), "s"});
  {
    auto reducer = spec.reducer();
    DiscardReduceContext ctx(spec.config);
    start = Clock::now();
    BMR_RETURN_IF_ERROR(bmr::mr::ReduceGroups(
        merged, spec.group_cmp ? spec.group_cmp : spec.sort_cmp,
        reducer.get(), &ctx));
    out->push_back({"mr.reduce_groups_s", Since(start), "s"});
  }

  // core: fold partition 0 with the workload's own store, then with each
  // store type in its place.
  BMR_ASSIGN_OR_RETURN(FoldResult own, Fold(spec, w.store, partition0));
  out->push_back({"core.fold_ns_per_record", own.ns_per_record, "ns"});
  const std::pair<const char*, bmr::core::StoreType> variants[] = {
      {"core.fold_ns_per_record.mem", bmr::core::StoreType::kInMemory},
      {"core.fold_ns_per_record.spill", bmr::core::StoreType::kSpillMerge},
      {"core.fold_ns_per_record.kv", bmr::core::StoreType::kKvStore}};
  for (const auto& [name, type] : variants) {
    bmr::core::StoreConfig config = w.store;
    config.type = type;
    BMR_ASSIGN_OR_RETURN(FoldResult fold, Fold(spec, config, partition0));
    out->push_back({name, fold.ns_per_record, "ns"});
  }
  out->push_back({"core.finalize_s", own.finalize_s, "s"});
  out->push_back(
      {"core.spills", static_cast<double>(own.stats.spills), "count"});
  out->push_back({"core.spill_mb", own.stats.spilled_bytes / kMiB, "MB"});
  out->push_back(
      {"core.peak_state_mb", own.stats.peak_memory_bytes / kMiB, "MB"});
  return Status::Ok();
}

}  // namespace e2ebench
