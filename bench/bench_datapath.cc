// Data-plane benchmark: measures the batched barrier-less shuffle path
// against the per-record design it replaced, plus fetch-to-reduce and
// partial-store throughput.  Emits machine-readable BENCH_datapath.json
// (schema: {bench, metric, value, unit, seed} per row) consumed by the
// scripts/bench.sh regression gate — every metric is higher-is-better.
//
//   bench_datapath [--smoke] [--out FILE]
//
// --smoke shrinks the workloads for CI; --out defaults to
// BENCH_datapath.json in the working directory.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/block_container.h"
#include "common/codec.h"
#include "common/config.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/serde.h"
#include "concurrency/bounded_queue.h"
#include "core/barrierless_driver.h"
#include "core/incremental.h"
#include "core/kvstore.h"
#include "core/partial_store.h"
#include "core/spill_merge_store.h"
#include "mr/map_output.h"
#include "mr/record_batch.h"
#include "mr/shuffle_service.h"
#include "obs/metric_names.h"
#include "obs/trace.h"

namespace bmr {
namespace {

constexpr uint64_t kSeed = 42;

struct MetricRow {
  std::string bench;
  std::string metric;
  double value;
  std::string unit;
};

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::vector<mr::Record> MakeRecords(size_t n, uint32_t distinct) {
  Pcg32 rng(kSeed);
  std::vector<mr::Record> records;
  records.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    records.emplace_back("key" + std::to_string(rng.NextBounded(distinct)),
                         "v" + std::to_string(i % 997));
  }
  return records;
}

/// Wordcount-shaped shuffle payload for the codec pair: zipf-skewed
/// word keys and "1" values, the stream the map side actually emits.
/// The uniform key<N> records above stay for the queue benches — they
/// are a deliberate worst case for batching, but as near-random bytes
/// they understate what block compression does to real shuffle traffic.
std::vector<mr::Record> MakeWordRecords(size_t n) {
  Pcg32 rng(kSeed);
  static const char* const kSyllables[] = {
      "an", "ber", "con", "dis", "en",  "for", "ing", "lo",
      "ma", "nor", "per", "qua", "re",  "sta", "ter", "un"};
  std::vector<std::string> vocab;
  vocab.reserve(5000);
  for (size_t i = 0; i < 5000; ++i) {
    std::string w;
    size_t parts = 2 + rng.NextBounded(3);
    for (size_t p = 0; p < parts; ++p) w += kSyllables[rng.NextBounded(16)];
    vocab.push_back(std::move(w));
  }
  std::vector<mr::Record> records;
  records.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    // Two chained bounded draws skew toward the head of the vocabulary
    // — the zipf-ish shape of natural-language word frequencies.
    records.emplace_back(vocab[rng.NextBounded(rng.NextBounded(5000) + 1)],
                         "1");
  }
  return records;
}

/// Encode `records` into shuffle-segment byte strings of roughly
/// `segment_bytes` each (the same framing DecodeSegment expects).
std::vector<std::string> EncodeSegments(const std::vector<mr::Record>& records,
                                        size_t segment_bytes) {
  std::vector<std::string> segments;
  ByteBuffer buf(segment_bytes + 256);
  Encoder enc(&buf);
  for (const mr::Record& r : records) {
    enc.PutString(r.key);
    enc.PutString(r.value);
    if (buf.size() >= segment_bytes) {
      segments.push_back(buf.ToString());
      buf.Clear();
    }
  }
  if (!buf.empty()) segments.push_back(buf.ToString());
  return segments;
}

/// The pre-batching design: one Push and one Pop (one lock cycle, one
/// wakeup) per record through the shuffle FIFO.
MetricRow BenchFifoPerRecord(const std::vector<mr::Record>& records) {
  BoundedQueue<mr::Record> fifo(64 << 10);
  uint64_t consumed_bytes = 0;
  auto t0 = std::chrono::steady_clock::now();
  std::thread producer([&records, &fifo] {
    for (const mr::Record& r : records) {
      if (!fifo.Push(r)) return;
    }
    fifo.Close();
  });
  while (auto record = fifo.Pop()) {
    consumed_bytes += record->key.size() + record->value.size();
  }
  producer.join();
  double secs = SecondsSince(t0);
  if (consumed_bytes == 0) secs = 1;  // defensive: never divide by zero work
  return {"queue", "per_record_records_per_sec",
          static_cast<double>(records.size()) / secs, "records/sec"};
}

/// The batched design: segments decode zero-copy into RecordBatches
/// that move through the FifoSink/BoundedQueue in byte-budgeted batches.
MetricRow BenchFifoBatched(const std::vector<std::string>& segments,
                           size_t total_records) {
  mr::FifoSink sink(mr::kDefaultShuffleFifoBatches,
                    mr::kDefaultShuffleBatchBytes);
  uint64_t consumed_bytes = 0;
  auto t0 = std::chrono::steady_clock::now();
  std::thread producer([&segments, &sink] {
    int map_task = 0;
    for (const std::string& segment : segments) {
      auto buffer = std::make_shared<const std::string>(segment);
      mr::RecordBatch batch;
      if (!mr::DecodeSegment(std::move(buffer), &batch).ok()) return;
      sink.Accept(map_task++, std::move(batch));
    }
    sink.fifo().Close();
  });
  std::vector<mr::RecordBatch> batches;
  while (sink.fifo().PopAll(&batches) > 0) {
    for (const mr::RecordBatch& batch : batches) {
      for (const mr::RecordBatch::Entry& e : batch) {
        consumed_bytes += e.key.size() + e.value.size();
      }
    }
    batches.clear();
  }
  producer.join();
  double secs = SecondsSince(t0);
  if (consumed_bytes == 0) secs = 1;
  return {"queue", "batched_records_per_sec",
          static_cast<double>(total_records) / secs, "records/sec"};
}

/// WordCount-shaped incremental fold: every record adds one.
class CountReducer final : public core::IncrementalReducer {
 public:
  std::string InitPartial(Slice) override { return EncodeI64(0); }
  void Update(Slice, Slice value, std::string* partial,
              mr::ReduceEmitter*) override {
    int64_t acc = 0;
    DecodeI64(Slice(*partial), &acc);
    (void)value;
    *partial = EncodeI64(acc + 1);
  }
  std::string MergePartials(Slice, Slice a, Slice b) override {
    int64_t x = 0, y = 0;
    DecodeI64(a, &x);
    DecodeI64(b, &y);
    return EncodeI64(x + y);
  }
};

/// Fetch-to-reduce: decode + sink + drain + a WordCount-shaped fold
/// into an in-memory store, i.e. the consumer does real per-record work
/// against Slice keys (the transparent-lookup hot path).
MetricRow BenchFetchToReduce(const std::vector<std::string>& segments,
                             size_t total_records) {
  mr::FifoSink sink(mr::kDefaultShuffleFifoBatches,
                    mr::kDefaultShuffleBatchBytes);
  auto store = core::CreatePartialStore(core::StoreConfig());
  auto t0 = std::chrono::steady_clock::now();
  std::thread producer([&segments, &sink] {
    int map_task = 0;
    for (const std::string& segment : segments) {
      auto buffer = std::make_shared<const std::string>(segment);
      mr::RecordBatch batch;
      if (!mr::DecodeSegment(std::move(buffer), &batch).ok()) return;
      sink.Accept(map_task++, std::move(batch));
    }
    sink.fifo().Close();
  });
  CountReducer reducer;
  std::vector<mr::RecordBatch> batches;
  while (sink.fifo().PopAll(&batches) > 0) {
    for (const mr::RecordBatch& batch : batches) {
      for (const mr::RecordBatch::Entry& e : batch) {
        if (!store->Fold(e.key, e.value, &reducer, nullptr).ok()) break;
      }
    }
    batches.clear();
  }
  producer.join();
  double secs = SecondsSince(t0);
  return {"fetch_to_reduce", "records_per_sec",
          static_cast<double>(total_records) / secs, "records/sec"};
}

class NullEmitter final : public mr::ReduceEmitter {
 public:
  void Emit(Slice, Slice) override {}
};

/// The instrumented barrier-less consume path exactly as the reduce
/// task runs it — FifoSink, batched drain with queue-wait timing, a
/// drain-cycle span, and the sampled store fold —
/// driven with `tracer` either null (tracing off) or enabled.  The
/// traced/untraced ratio is the ISSUE 5 acceptance gate: tracing on
/// must retain >= 90% of the untraced throughput.
double ObsDatapathRecordsPerSec(const std::vector<std::string>& segments,
                                size_t total_records, obs::Tracer* tracer) {
  CountReducer reducer;
  core::StoreConfig store_config;
  store_config.tracer = tracer;
  core::BarrierlessDriver driver(&reducer, store_config, Config());
  NullEmitter out;
  mr::FifoSink sink(mr::kDefaultShuffleFifoBatches,
                    mr::kDefaultShuffleBatchBytes, tracer);
  auto t0 = std::chrono::steady_clock::now();
  std::thread producer([&segments, &sink] {
    int map_task = 0;
    for (const std::string& segment : segments) {
      auto buffer = std::make_shared<const std::string>(segment);
      mr::RecordBatch batch;
      if (!mr::DecodeSegment(std::move(buffer), &batch).ok()) return;
      sink.Accept(map_task++, std::move(batch));
    }
    sink.fifo().Close();
  });
  std::vector<mr::RecordBatch> batches;
  bool ok = true;
  while (ok) {
    size_t popped;
    {
      obs::LatencyTimer wait(tracer, obs::kHShuffleQueueWaitUs);
      popped = sink.fifo().PopAll(&batches);
    }
    if (popped == 0) break;
    obs::ScopedSpan drain_span(tracer, obs::kSpanReduceBatch, "reduce", 0);
    for (const mr::RecordBatch& batch : batches) {
      for (const mr::RecordBatch::Entry& e : batch) {
        if (!driver.Consume(e.key, e.value, &out).ok()) {
          ok = false;
          break;
        }
      }
      if (!ok) break;
    }
    batches.clear();
  }
  producer.join();
  if (!driver.Finalize(&out).ok()) return 0;
  return static_cast<double>(total_records) / SecondsSince(t0);
}

void BenchObsOverhead(const std::vector<std::string>& segments,
                      size_t total_records, std::vector<MetricRow>* rows) {
  // The ratio is an acceptance gate, so it is the median of per-pair
  // traced/untraced ratios over an odd number of pairs whose order
  // alternates: a slow run or a drift in machine load moves one pair,
  // and neither leg always runs first.
  constexpr int kPairs = 15;
  Distribution untraced, traced, ratios;
  for (int i = 0; i < kPairs; ++i) {
    double u = 0;
    double t = 0;
    auto run_untraced = [&] {
      u = ObsDatapathRecordsPerSec(segments, total_records, nullptr);
    };
    auto run_traced = [&] {
      obs::Tracer tracer;  // fresh per run: spans/histograms don't pile up
      tracer.Enable();
      tracer.RestartClock();
      tracer.SetRootSpan(tracer.NextSpanId());
      t = ObsDatapathRecordsPerSec(segments, total_records, &tracer);
    };
    if (i % 2 == 0) {
      run_untraced();
      run_traced();
    } else {
      run_traced();
      run_untraced();
    }
    untraced.Add(u);
    traced.Add(t);
    ratios.Add(t / u);
  }
  rows->push_back(
      {"obs", "untraced_records_per_sec", untraced.Median(), "records/sec"});
  rows->push_back(
      {"obs", "traced_records_per_sec", traced.Median(), "records/sec"});
  // Baseline 1.125 x the 80% gate floor = 0.9: tracing may cost at most
  // 10% of untraced throughput.
  rows->push_back({"obs", "trace_overhead_ratio", ratios.Median(), "x"});
}

/// One codec leg of the shuffle-wire pair: wrap every framed segment in
/// the block-compressed container, then run the fetch side's full
/// decode path — per-block checksum verify, decompress into a
/// pool-backed buffer, zero-copy batch decode — and count records out.
struct CodecLeg {
  uint64_t wire_bytes = 0;
  double records_per_sec = 0;
};

CodecLeg RunCodecLeg(const std::vector<std::string>& segments,
                     size_t total_records, const char* name) {
  StatusOr<const Codec*> codec = FindCodec(name);
  if (!codec.ok()) {
    std::fprintf(stderr, "codec %s: %s\n", name,
                 codec.status().message().c_str());
    std::exit(1);
  }
  CodecLeg leg;
  std::vector<std::string> wire;
  wire.reserve(segments.size());
  ByteBuffer buf;
  for (const std::string& segment : segments) {
    buf.Clear();
    EncodeShuffleSegment(Slice(segment), **codec, kDefaultShuffleBlockBytes,
                         &buf);
    leg.wire_bytes += buf.size();
    wire.push_back(buf.ToString());
  }
  uint64_t consumed_bytes = 0;
  auto t0 = std::chrono::steady_clock::now();
  for (const std::string& w : wire) {
    std::shared_ptr<const std::string> raw;
    if (!DecodeShuffleSegment(Slice(w), &raw).ok()) std::exit(1);
    mr::RecordBatch batch;
    if (!mr::DecodeSegment(std::move(raw), &batch).ok()) std::exit(1);
    for (const mr::RecordBatch::Entry& e : batch) {
      consumed_bytes += e.key.size() + e.value.size();
    }
  }
  double secs = SecondsSince(t0);
  if (consumed_bytes == 0) secs = 1;
  leg.records_per_sec = static_cast<double>(total_records) / secs;
  return leg;
}

void BenchCodec(const std::vector<std::string>& segments,
                size_t total_records, std::vector<MetricRow>* rows) {
  // Best-of-3 per leg: both derived ratios are acceptance gates.
  CodecLeg none = RunCodecLeg(segments, total_records, "none");
  CodecLeg lz4 = RunCodecLeg(segments, total_records, "lz4");
  for (int i = 0; i < 2; ++i) {
    CodecLeg n = RunCodecLeg(segments, total_records, "none");
    none.records_per_sec = std::max(none.records_per_sec, n.records_per_sec);
    CodecLeg z = RunCodecLeg(segments, total_records, "lz4");
    lz4.records_per_sec = std::max(lz4.records_per_sec, z.records_per_sec);
  }
  rows->push_back({"codec", "none_decode_records_per_sec",
                   none.records_per_sec, "records/sec"});
  rows->push_back({"codec", "lz4_decode_records_per_sec",
                   lz4.records_per_sec, "records/sec"});
  // Baseline 0.375 x the 80% gate floor = 0.30: lz4 must keep at least
  // 30% of the shuffle bytes off the wire.
  rows->push_back({"codec", "lz4_wire_saved_ratio",
                   1.0 - static_cast<double>(lz4.wire_bytes) /
                             static_cast<double>(none.wire_bytes),
                   "x"});
  // Baseline 1.125 x 0.8 = 0.9: the compressed decode path must retain
  // >= 90% of the uncompressed record throughput.
  rows->push_back({"codec", "lz4_throughput_ratio",
                   lz4.records_per_sec / none.records_per_sec, "x"});
}

template <typename Store>
double StoreOpsPerSec(Store& store, const std::vector<mr::Record>& records) {
  CountReducer reducer;
  auto t0 = std::chrono::steady_clock::now();
  for (const mr::Record& r : records) {
    if (!store.Fold(Slice(r.key), Slice(r.value), &reducer, nullptr).ok()) {
      break;
    }
  }
  // One op = one read-modify-update fold.
  return static_cast<double>(records.size()) / SecondsSince(t0);
}

void BenchStores(const std::vector<mr::Record>& records,
                 std::vector<MetricRow>* rows) {
  {
    auto store = core::CreatePartialStore(core::StoreConfig());
    rows->push_back({"store", "inmemory_ops_per_sec",
                     StoreOpsPerSec(*store, records), "ops/sec"});
  }
  {
    core::StoreConfig config;
    config.type = core::StoreType::kSpillMerge;
    config.spill_threshold_bytes = 1 << 20;
    core::SpillMergeStore store(config);
    rows->push_back({"store", "spillmerge_ops_per_sec",
                     StoreOpsPerSec(store, records), "ops/sec"});
  }
  {
    core::StoreConfig config;
    config.type = core::StoreType::kKvStore;
    config.kv_cache_bytes = 256 << 10;
    core::KvStoreBackend store(config);
    rows->push_back({"store", "kvstore_ops_per_sec",
                     StoreOpsPerSec(store, records), "ops/sec"});
  }
}

void WriteJson(const std::vector<MetricRow>& rows, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f,
                 "  {\"bench\": \"%s\", \"metric\": \"%s\", \"value\": %.3f, "
                 "\"unit\": \"%s\", \"seed\": %llu}%s\n",
                 rows[i].bench.c_str(), rows[i].metric.c_str(), rows[i].value,
                 rows[i].unit.c_str(),
                 static_cast<unsigned long long>(kSeed),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
}

int Main(int argc, char** argv) {
  bool smoke = false;
  std::string out = "BENCH_datapath.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out FILE]\n", argv[0]);
      return 2;
    }
  }

  const size_t queue_records = smoke ? 200'000 : 2'000'000;
  const size_t store_records = smoke ? 50'000 : 400'000;
  const size_t segment_bytes = 64 << 10;

  std::vector<MetricRow> rows;
  auto records = MakeRecords(queue_records, /*distinct=*/10'000);
  auto segments = EncodeSegments(records, segment_bytes);

  // Best-of-3 for the queue pair: the ratio is an acceptance gate, so
  // damp scheduler noise.
  MetricRow per_record = BenchFifoPerRecord(records);
  MetricRow batched = BenchFifoBatched(segments, records.size());
  for (int i = 0; i < 2; ++i) {
    MetricRow p = BenchFifoPerRecord(records);
    if (p.value > per_record.value) per_record = p;
    MetricRow b = BenchFifoBatched(segments, records.size());
    if (b.value > batched.value) batched = b;
  }
  rows.push_back(per_record);
  rows.push_back(batched);
  rows.push_back({"queue", "batched_speedup", batched.value / per_record.value,
                  "x"});

  rows.push_back(BenchFetchToReduce(segments, records.size()));
  BenchObsOverhead(segments, records.size(), &rows);
  BenchCodec(EncodeSegments(MakeWordRecords(queue_records), segment_bytes),
             queue_records, &rows);
  BenchStores(MakeRecords(store_records, /*distinct=*/10'000), &rows);

  WriteJson(rows, out);
  for (const MetricRow& r : rows) {
    std::printf("%-16s %-28s %14.1f %s\n", r.bench.c_str(), r.metric.c_str(),
                r.value, r.unit.c_str());
  }
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace bmr

int main(int argc, char** argv) { return bmr::Main(argc, argv); }
