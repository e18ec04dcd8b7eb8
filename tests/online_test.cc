// Tests for progressive (online) snapshots: EmitSnapshot must reflect
// everything folded so far, never disturb the store, and converge to
// the final result — across all three partial-result stores.
#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "common/serde.h"
#include "core/barrierless_driver.h"
#include "mr/emitter.h"
#include "mr/types.h"

namespace bmr::core {
namespace {

class SumReducer final : public IncrementalReducer {
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

using Records = std::vector<mr::Record>;

std::map<std::string, int64_t> Decode(const Records& records) {
  std::map<std::string, int64_t> out;
  for (const auto& r : records) {
    int64_t v = 0;
    DecodeI64(Slice(r.value), &v);
    out[r.key] += v;
  }
  return out;
}

class OnlineSnapshotTest : public ::testing::TestWithParam<StoreType> {};

TEST_P(OnlineSnapshotTest, SnapshotsConvergeToFinal) {
  SumReducer reducer;
  StoreConfig store;
  store.type = GetParam();
  store.spill_threshold_bytes = 2048;  // force spills for kSpillMerge
  store.kv_cache_bytes = 2048;         // force evictions for kKvStore
  Config config;
  BarrierlessDriver driver(&reducer, store, config);

  Pcg32 rng(11);
  std::map<std::string, int64_t> truth;
  Records sink;
  mr::VectorEmitter<Records> emitter(&sink);
  std::map<std::string, int64_t> previous_snapshot;
  uint64_t previous_total = 0;

  for (int batch = 0; batch < 5; ++batch) {
    for (int i = 0; i < 600; ++i) {
      std::string key = "key" + std::to_string(rng.NextBounded(40));
      ASSERT_TRUE(
          driver.Consume(Slice(key), Slice(EncodeI64(1)), &emitter).ok());
      truth[key]++;
    }
    // Mid-stream snapshot: exact counts of everything folded so far.
    Records snapshot;
    mr::VectorEmitter<Records> snap_emitter(&snapshot);
    ASSERT_TRUE(driver.EmitSnapshot(&snap_emitter).ok())
        << StoreTypeName(GetParam());
    auto decoded = Decode(snapshot);
    EXPECT_EQ(decoded, truth) << "batch " << batch;
    // Monotone convergence: totals never shrink.
    uint64_t total = 0;
    for (const auto& [k, v] : decoded) total += v;
    EXPECT_GE(total, previous_total);
    previous_total = total;
    previous_snapshot = decoded;
  }

  // The snapshot machinery must not disturb the final result.
  Records final_records;
  mr::VectorEmitter<Records> final_emitter(&final_records);
  ASSERT_TRUE(driver.Finalize(&final_emitter).ok());
  EXPECT_EQ(Decode(final_records), truth);
  // The in-memory store shares the spill-merge memtable but must ignore
  // the spill threshold set above.
  if (GetParam() == StoreType::kInMemory) {
    EXPECT_EQ(driver.store()->stats().spills, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Stores, OnlineSnapshotTest,
                         ::testing::Values(StoreType::kInMemory,
                                           StoreType::kSpillMerge,
                                           StoreType::kKvStore),
                         [](const auto& info) {
                           switch (info.param) {
                             case StoreType::kInMemory: return "InMemory";
                             case StoreType::kSpillMerge: return "SpillMerge";
                             case StoreType::kKvStore: return "KvStore";
                           }
                           return "Unknown";
                         });

TEST(OnlineSnapshotTest, SnapshotAfterFinalizeRejected) {
  SumReducer reducer;
  StoreConfig store;
  Config config;
  BarrierlessDriver driver(&reducer, store, config);
  Records sink;
  mr::VectorEmitter<Records> emitter(&sink);
  ASSERT_TRUE(driver.Finalize(&emitter).ok());
  EXPECT_EQ(driver.EmitSnapshot(&emitter).code(),
            StatusCode::kFailedPrecondition);
}

TEST(OnlineSnapshotTest, SnapshotOrderedByKey) {
  SumReducer reducer;
  StoreConfig store;
  store.type = StoreType::kSpillMerge;
  store.spill_threshold_bytes = 512;
  Config config;
  BarrierlessDriver driver(&reducer, store, config);
  Records sink;
  mr::VectorEmitter<Records> emitter(&sink);
  Pcg32 rng(3);
  for (int i = 0; i < 500; ++i) {
    std::string key = "k" + std::to_string(rng.NextBounded(60));
    ASSERT_TRUE(
        driver.Consume(Slice(key), Slice(EncodeI64(1)), &emitter).ok());
  }
  Records snapshot;
  mr::VectorEmitter<Records> snap_emitter(&snapshot);
  ASSERT_TRUE(driver.EmitSnapshot(&snap_emitter).ok());
  ASSERT_FALSE(snapshot.empty());
  for (size_t i = 1; i < snapshot.size(); ++i) {
    EXPECT_LT(snapshot[i - 1].key, snapshot[i].key);
  }
}

}  // namespace
}  // namespace bmr::core
