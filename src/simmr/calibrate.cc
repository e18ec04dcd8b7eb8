#include "simmr/calibrate.h"

#include <algorithm>

#include "common/rng.h"
#include "common/serde.h"
#include "common/stopwatch.h"
#include "core/barrierless_driver.h"
#include "mr/shuffle.h"
#include "mr/types.h"

namespace bmr::simmr {

namespace {

/// WordCount-style fold.
class CountReducer final : public core::IncrementalReducer {
 public:
  std::string InitPartial(Slice) override { return EncodeI64(0); }
  void Update(Slice, Slice value, std::string* partial,
              mr::ReduceEmitter*) override {
    int64_t acc = 0, v = 0;
    DecodeI64(Slice(*partial), &acc);
    DecodeI64(value, &v);
    *partial = EncodeI64(acc + v);
  }
  std::string MergePartials(Slice, Slice a, Slice b) override {
    int64_t x = 0, y = 0;
    DecodeI64(a, &x);
    DecodeI64(b, &y);
    return EncodeI64(x + y);
  }
};

class NullEmitter final : public mr::ReduceEmitter {
 public:
  void Emit(Slice, Slice) override { ++count_; }
  uint64_t count() const { return count_; }

 private:
  uint64_t count_ = 0;
};

/// Barrier-mode summing reducer for the grouped measurement.
class SumGroupReducer final : public mr::Reducer {
 public:
  explicit SumGroupReducer(uint64_t* sink) : sink_(sink) {}
  void Reduce(Slice, mr::ValuesIterator* values,
              mr::ReduceContext*) override {
    int64_t sum = 0;
    Slice v;
    while (values->Next(&v)) {
      int64_t x = 0;
      DecodeI64(v, &x);
      sum += x;
    }
    *sink_ += static_cast<uint64_t>(sum);
  }

 private:
  uint64_t* sink_;
};

class NullReduceCtx final : public mr::ReduceContext {
 public:
  void Emit(Slice, Slice) override {}
  const Config& config() const override { return config_; }
  mr::Counters* counters() override { return &counters_; }

 private:
  Config config_;
  mr::Counters counters_;
};

std::vector<std::vector<mr::Record>> MakeSortedRuns(
    uint64_t records, uint64_t distinct, int runs, uint64_t seed,
    bool zipf_keys) {
  std::vector<std::vector<mr::Record>> out(runs);
  Pcg32 rng(seed);
  ZipfGenerator zipf(std::max<uint64_t>(distinct, 1), 1.0, seed * 3 + 1);
  std::string one = EncodeI64(1);
  for (uint64_t i = 0; i < records; ++i) {
    uint64_t k = zipf_keys ? zipf.Next()
                           : rng.NextU64() % std::max<uint64_t>(distinct, 1);
    out[i % runs].emplace_back("key" + std::to_string(k), one);
  }
  for (auto& run : out) {
    std::stable_sort(run.begin(), run.end(),
                     [](const mr::Record& a, const mr::Record& b) {
                       return a.key < b.key;
                     });
  }
  return out;
}

MicroCosts MeasureWith(std::string name, uint64_t records, uint64_t distinct,
                       int runs, uint64_t seed, bool zipf_keys,
                       double fold_cost_scale,
                       core::StoreType store_type) {
  MicroCosts costs;
  costs.workload = std::move(name);
  costs.records = records;
  costs.distinct_keys = distinct;
  (void)fold_cost_scale;

  auto sorted_runs = MakeSortedRuns(records, distinct, runs, seed, zipf_keys);

  // Barrier path: merge then grouped reduce.
  Stopwatch timer;
  auto merged = mr::MergeSortedRuns(std::move(sorted_runs), nullptr);
  costs.merge_secs_per_record = timer.ElapsedSeconds() / records;

  uint64_t sink = 0;
  SumGroupReducer reducer(&sink);
  NullReduceCtx ctx;
  timer.Restart();
  (void)mr::ReduceGroups(merged, nullptr,
                         &reducer, &ctx);  // timing probe; cannot fail in-mem
  costs.grouped_reduce_secs_per_record = timer.ElapsedSeconds() / records;

  // Barrier-less path: fold every record through the store in a fresh
  // arrival order (unsorted, as the FIFO would deliver them).
  auto arrival = MakeSortedRuns(records, distinct, 1, seed + 17, zipf_keys);
  CountReducer incremental;
  core::StoreConfig store_config;
  store_config.type = store_type;
  Config job_config;
  core::BarrierlessDriver driver(&incremental, store_config, job_config);
  NullEmitter emitter;
  // Shuffle arrival order: de-sort deterministically.
  auto& stream = arrival[0];
  Pcg32 shuffle_rng(seed + 23);
  for (size_t i = stream.size(); i > 1; --i) {
    std::swap(stream[i - 1], stream[shuffle_rng.NextBounded(
                                 static_cast<uint32_t>(i))]);
  }
  timer.Restart();
  for (const auto& record : stream) {
    (void)driver.Consume(Slice(record.key), Slice(record.value),
                         &emitter);  // timing probe; store errors moot
  }
  double fold_secs = timer.ElapsedSeconds();

  timer.Restart();
  (void)driver.Finalize(&emitter);  // timing probe; output discarded anyway
  double finalize_secs = timer.ElapsedSeconds();
  costs.incremental_secs_per_record = (fold_secs + finalize_secs) / records;
  costs.finalize_secs_per_key =
      finalize_secs / std::max<uint64_t>(distinct, 1);
  return costs;
}

}  // namespace

MicroCosts MeasureAggregationCosts(uint64_t records, uint64_t distinct,
                                   int runs, uint64_t seed,
                                   core::StoreType store_type) {
  return MeasureWith("aggregation", records, distinct, runs, seed,
                     /*zipf_keys=*/true, 1.0, store_type);
}

MicroCosts MeasureSortCosts(uint64_t records, int runs, uint64_t seed) {
  // Unique-ish key space: the store grows to O(records) keys, and their
  // O(n log n) sort is paid in Finalize.
  return MeasureWith("sort", records, records, runs, seed,
                     /*zipf_keys=*/false, 1.0, core::StoreType::kInMemory);
}

}  // namespace bmr::simmr
