// google-benchmark micro-suite for the data-path primitives: partial
// stores (the three Section-5 schemes), the k-way merge vs the
// unique-key fold + finalize sort (the Fig. 6(a) mechanism), the
// shuffle FIFO, and the serde layer.
#include <benchmark/benchmark.h>

#include "common/hash.h"
#include "common/rng.h"
#include "common/serde.h"
#include "concurrency/bounded_queue.h"
#include "core/incremental.h"
#include "core/kvstore.h"
#include "core/partial_store.h"
#include "core/spill_merge_store.h"
#include "mr/shuffle.h"

namespace bmr {
namespace {

std::vector<std::string> MakeKeys(size_t n, uint32_t distinct, uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<std::string> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    keys.push_back("key" + std::to_string(rng.NextBounded(distinct)));
  }
  return keys;
}

/// WordCount-shaped fold: every record adds one to its key's count.
class CountReducer final : public core::IncrementalReducer {
 public:
  std::string InitPartial(Slice) override { return EncodeI64(0); }
  void Update(Slice, Slice, std::string* partial,
              mr::ReduceEmitter*) override {
    int64_t n = 0;
    DecodeI64(Slice(*partial), &n);
    *partial = EncodeI64(n + 1);
  }
};

template <typename Store>
void RunStoreFold(Store& store, const std::vector<std::string>& keys) {
  CountReducer reducer;
  for (const auto& key : keys) {
    benchmark::DoNotOptimize(store.Fold(Slice(key), Slice(), &reducer,
                                        nullptr));
  }
}

void BM_InMemoryStoreFold(benchmark::State& state) {
  auto keys = MakeKeys(8192, static_cast<uint32_t>(state.range(0)), 42);
  for (auto _ : state) {
    auto store = core::CreatePartialStore(core::StoreConfig());
    RunStoreFold(*store, keys);
  }
  state.SetItemsProcessed(state.iterations() * keys.size());
}
BENCHMARK(BM_InMemoryStoreFold)->Arg(64)->Arg(1024)->Arg(8192);

void BM_SpillMergeStoreFold(benchmark::State& state) {
  auto keys = MakeKeys(8192, 1024, 42);
  for (auto _ : state) {
    core::StoreConfig config;
    config.type = core::StoreType::kSpillMerge;
    config.spill_threshold_bytes = static_cast<uint64_t>(state.range(0));
    core::SpillMergeStore store(config);
    RunStoreFold(store, keys);
  }
  state.SetItemsProcessed(state.iterations() * keys.size());
}
BENCHMARK(BM_SpillMergeStoreFold)->Arg(16 << 10)->Arg(256 << 10);

void BM_KvStoreFold(benchmark::State& state) {
  auto keys = MakeKeys(8192, 1024, 42);
  for (auto _ : state) {
    core::StoreConfig config;
    config.type = core::StoreType::kKvStore;
    config.kv_cache_bytes = static_cast<uint64_t>(state.range(0));
    core::KvStoreBackend store(config);
    RunStoreFold(store, keys);
  }
  state.SetItemsProcessed(state.iterations() * keys.size());
}
BENCHMARK(BM_KvStoreFold)->Arg(8 << 10)->Arg(1 << 20);

/// The barrier's mechanism: k-way merge of sorted runs.
void BM_MergeSortedRuns(benchmark::State& state) {
  const int runs = static_cast<int>(state.range(0));
  std::vector<std::vector<mr::Record>> source(runs);
  Pcg32 rng(7);
  for (int r = 0; r < runs; ++r) {
    for (int i = 0; i < 20000 / runs; ++i) {
      source[r].emplace_back("k" + std::to_string(rng.NextU32()), "");
    }
    std::sort(source[r].begin(), source[r].end(),
              [](const mr::Record& a, const mr::Record& b) {
                return a.key < b.key;
              });
  }
  for (auto _ : state) {
    auto copy = source;
    auto merged = mr::MergeSortedRuns(std::move(copy), nullptr);
    benchmark::DoNotOptimize(merged);
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_MergeSortedRuns)->Arg(4)->Arg(16)->Arg(64);

/// The barrier-less mechanism on Sort's worst case: unique keys fold
/// through the hash index (O(records) partials), then finalize sorts
/// them for ordered emission — the work BM_MergeSortedRuns does for
/// the barrier.
void BM_UniqueKeyFoldAndFinalize(benchmark::State& state) {
  Pcg32 rng(7);
  std::vector<std::string> keys;
  for (int i = 0; i < 20000; ++i) {
    keys.push_back("k" + std::to_string(rng.NextU32()));
  }
  CountReducer reducer;
  for (auto _ : state) {
    auto store = core::CreatePartialStore(core::StoreConfig());
    for (const auto& key : keys) {
      benchmark::DoNotOptimize(store->Fold(Slice(key), Slice(), &reducer,
                                          nullptr));
    }
    benchmark::DoNotOptimize(store->ForEachMerged(
        nullptr, [](Slice key, Slice) { benchmark::DoNotOptimize(key); }));
  }
  state.SetItemsProcessed(state.iterations() * keys.size());
}
BENCHMARK(BM_UniqueKeyFoldAndFinalize);

void BM_BoundedQueueThroughput(benchmark::State& state) {
  for (auto _ : state) {
    BoundedQueue<int> queue(1024);
    for (int i = 0; i < 4096; ++i) {
      if (!queue.TryPush(i)) {
        while (queue.TryPop()) {
        }
        queue.TryPush(i);
      }
    }
    while (queue.TryPop()) {
    }
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_BoundedQueueThroughput);

void BM_VarintRoundTrip(benchmark::State& state) {
  Pcg32 rng(3);
  std::vector<uint64_t> values;
  for (int i = 0; i < 1024; ++i) values.push_back(rng.NextU64() >> (i % 50));
  for (auto _ : state) {
    ByteBuffer buf;
    Encoder enc(&buf);
    for (uint64_t v : values) enc.PutVarint64(v);
    Decoder dec(buf.AsSlice());
    uint64_t out = 0, sum = 0;
    while (dec.GetVarint64(&out)) sum += out;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_VarintRoundTrip);

void BM_Fnv1a64(benchmark::State& state) {
  std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Fnv1a64(Slice(data)));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Fnv1a64)->Arg(8)->Arg(64)->Arg(1024);

}  // namespace
}  // namespace bmr
