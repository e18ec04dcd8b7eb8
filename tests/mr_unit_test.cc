// Unit tests for the mr layer's building blocks: collector, combiner,
// partitioners, k-way merge, grouped iteration, map-output tracker.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "common/serde.h"
#include "mr/map_output.h"
#include "mr/partition.h"
#include "mr/shuffle.h"
#include "net/transport.h"
#include "transport_test_util.h"

namespace bmr::mr {
namespace {

TEST(PartitionTest, HashPartitionInRangeAndDeterministic) {
  Pcg32 rng(1);
  for (int i = 0; i < 1000; ++i) {
    std::string key = "key" + std::to_string(rng.NextU32());
    for (int parts : {1, 2, 7, 64}) {
      int p = HashPartition(Slice(key), parts);
      EXPECT_GE(p, 0);
      EXPECT_LT(p, parts);
      EXPECT_EQ(p, HashPartition(Slice(key), parts));
    }
  }
}

TEST(PartitionTest, HashPartitionSpreadsKeys) {
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 8000; ++i) {
    counts[HashPartition(Slice("key" + std::to_string(i)), 8)]++;
  }
  for (int c : counts) {
    EXPECT_GT(c, 700);  // roughly uniform (1000 expected)
    EXPECT_LT(c, 1300);
  }
}

TEST(PartitionTest, PrefixPartitionIgnoresSuffix) {
  PartitionFn fn = PrefixHashPartition(8);
  std::string base = EncodeOrderedI64(1234567);
  for (int i = 0; i < 50; ++i) {
    std::string key = base + EncodeOrderedI64(i);  // same 8-byte prefix
    EXPECT_EQ(fn(Slice(key), 16), fn(Slice(base), 16));
  }
}

TEST(PartitionTest, UniformRangePartitionIsMonotone) {
  int last = 0;
  for (int64_t v = -1000000; v <= 1000000; v += 10000) {
    std::string key = EncodeOrderedI64(v);
    int p = UniformRangePartition(Slice(key), 16);
    EXPECT_GE(p, last);
    EXPECT_LT(p, 16);
    last = p;
  }
}

TEST(MapOutputCollectorTest, PartitionsAndSorts) {
  MapOutputCollector collector(3, nullptr);
  Pcg32 rng(2);
  int expected_records = 200;
  for (int i = 0; i < expected_records; ++i) {
    collector.Emit("k" + std::to_string(rng.NextBounded(50)), "v");
  }
  EXPECT_EQ(collector.buffered_records(), 200u);
  auto finished = collector.Finish(/*sort=*/true, nullptr, nullptr);
  ASSERT_TRUE(finished.ok());
  EXPECT_EQ(finished->output_records, 200u);

  int total = 0;
  for (const auto& segment : finished->segments) {
    std::vector<Record> records;
    ASSERT_TRUE(DecodeSegment(Slice(segment), &records).ok());
    total += records.size();
    for (size_t i = 1; i < records.size(); ++i) {
      EXPECT_LE(records[i - 1].key, records[i].key);
    }
  }
  EXPECT_EQ(total, expected_records);
}

TEST(MapOutputCollectorTest, UnsortedModeKeepsEmissionOrder) {
  MapOutputCollector collector(1, nullptr);
  collector.Emit("z", "1");
  collector.Emit("a", "2");
  collector.Emit("m", "3");
  auto finished = collector.Finish(/*sort=*/false, nullptr, nullptr);
  ASSERT_TRUE(finished.ok());
  std::vector<Record> records;
  ASSERT_TRUE(DecodeSegment(Slice(finished->segments[0]), &records).ok());
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].key, "z");
  EXPECT_EQ(records[1].key, "a");
  EXPECT_EQ(records[2].key, "m");
}

class SumCombiner final : public Combiner {
 public:
  void Combine(Slice key, const std::vector<Slice>& values,
               MapEmitter* out) override {
    int64_t sum = 0;
    for (Slice v : values) {
      int64_t x = 0;
      DecodeI64(v, &x);
      sum += x;
    }
    std::string encoded = EncodeI64(sum);
    out->Emit(key, Slice(encoded));
  }
};

TEST(MapOutputCollectorTest, CombinerFoldsDuplicates) {
  MapOutputCollector collector(2, nullptr);
  for (int i = 0; i < 300; ++i) {
    collector.Emit("k" + std::to_string(i % 10), EncodeI64(1));
  }
  SumCombiner combiner;
  auto finished = collector.Finish(true, nullptr, &combiner);
  ASSERT_TRUE(finished.ok());
  EXPECT_EQ(finished->combine_in, 300u);
  EXPECT_EQ(finished->combine_out, 10u);
  int64_t total = 0;
  for (const auto& segment : finished->segments) {
    std::vector<Record> records;
    ASSERT_TRUE(DecodeSegment(Slice(segment), &records).ok());
    for (const auto& r : records) {
      int64_t v = 0;
      DecodeI64(Slice(r.value), &v);
      total += v;
    }
  }
  EXPECT_EQ(total, 300);
}

TEST(MapOutputCollectorTest, CombinerWithoutSortRejected) {
  MapOutputCollector collector(1, nullptr);
  collector.Emit("k", EncodeI64(1));
  SumCombiner combiner;
  auto finished = collector.Finish(/*sort=*/false, nullptr, &combiner);
  EXPECT_EQ(finished.status().code(), StatusCode::kFailedPrecondition);
}

TEST(MergeTest, MergesSortedRunsStably) {
  std::vector<std::vector<Record>> runs(3);
  runs[0] = {{"a", "r0"}, {"c", "r0"}};
  runs[1] = {{"a", "r1"}, {"b", "r1"}};
  runs[2] = {{"a", "r2"}};
  auto merged = MergeSortedRuns(std::move(runs), nullptr);
  ASSERT_EQ(merged.size(), 5u);
  // Equal keys appear in run order.
  EXPECT_EQ(merged[0].value, "r0");
  EXPECT_EQ(merged[1].value, "r1");
  EXPECT_EQ(merged[2].value, "r2");
  EXPECT_EQ(merged[3].key, "b");
  EXPECT_EQ(merged[4].key, "c");
}

TEST(MergeTest, RandomizedAgainstStdSort) {
  Pcg32 rng(3);
  std::vector<std::vector<Record>> runs(7);
  std::vector<std::string> all;
  for (int r = 0; r < 7; ++r) {
    int n = rng.NextBounded(200);
    for (int i = 0; i < n; ++i) {
      std::string key = "k" + std::to_string(rng.NextBounded(100));
      runs[r].emplace_back(key, "");
      all.push_back(key);
    }
    std::sort(runs[r].begin(), runs[r].end(),
              [](const Record& a, const Record& b) { return a.key < b.key; });
  }
  std::sort(all.begin(), all.end());
  auto merged = MergeSortedRuns(std::move(runs), nullptr);
  ASSERT_EQ(merged.size(), all.size());
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(merged[i].key, all[i]);
  }
}

class CollectingReducer final : public Reducer {
 public:
  void Reduce(Slice key, ValuesIterator* values,
              ReduceContext* ctx) override {
    int count = 0;
    Slice v;
    while (values->Next(&v)) ++count;
    std::string encoded = EncodeI64(count);
    ctx->Emit(key, Slice(encoded));
  }
};

class TestReduceCtx final : public ReduceContext {
 public:
  void Emit(Slice key, Slice value) override {
    records.emplace_back(key.ToString(), value.ToString());
  }
  const Config& config() const override { return config_; }
  Counters* counters() override { return &counters_; }
  std::vector<Record> records;

 private:
  Config config_;
  Counters counters_;
};

TEST(ReduceGroupsTest, GroupsConsecutiveEqualKeys) {
  std::vector<Record> sorted = {{"a", "1"}, {"a", "2"}, {"b", "3"},
                                {"c", "4"}, {"c", "5"}, {"c", "6"}};
  CollectingReducer reducer;
  TestReduceCtx ctx;
  ASSERT_TRUE(ReduceGroups(sorted, nullptr, &reducer, &ctx).ok());
  ASSERT_EQ(ctx.records.size(), 3u);
  int64_t n = 0;
  DecodeI64(Slice(ctx.records[0].value), &n);
  EXPECT_EQ(n, 2);
  DecodeI64(Slice(ctx.records[2].value), &n);
  EXPECT_EQ(n, 3);
}

TEST(ReduceGroupsTest, CustomGroupComparatorMergesPrefixGroups) {
  // Keys (group, seq): group by first byte only.
  std::vector<Record> sorted = {{"a1", "x"}, {"a2", "x"}, {"b1", "x"}};
  CollectingReducer reducer;
  TestReduceCtx ctx;
  KeyCompareFn group = [](Slice a, Slice b) {
    return Slice(a.data(), 1).Compare(Slice(b.data(), 1));
  };
  ASSERT_TRUE(ReduceGroups(sorted, group, &reducer, &ctx).ok());
  ASSERT_EQ(ctx.records.size(), 2u);
  EXPECT_EQ(ctx.records[0].key, "a1");  // first key of the group
}

TEST(MapOutputTrackerTest, EntriesComeBackInCompletionOrder) {
  MapOutputTracker tracker(3);
  tracker.MarkDone(2, 5);
  tracker.MarkDone(0, 6);
  tracker.MarkDone(1, 7);
  MapOutputTracker::Cursor cursor;
  MapOutputTracker::Entry entry;
  std::vector<std::pair<int, int>> got;  // (map, node)
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(tracker.Next(&cursor, &entry));
    got.emplace_back(entry.map, entry.node);
  }
  EXPECT_EQ(got, (std::vector<std::pair<int, int>>{{2, 5}, {0, 6}, {1, 7}}));
  // A second cursor walks the same log independently.
  MapOutputTracker::Cursor other;
  ASSERT_TRUE(tracker.Next(&other, &entry));
  EXPECT_EQ(entry.map, 2);
}

TEST(MapOutputTrackerTest, LostThenRerunMapYieldsOnlyItsNewVersion) {
  MapOutputTracker tracker(2);
  tracker.MarkDone(0, 3);
  MapOutputTracker::Cursor first;
  MapOutputTracker::Entry lost;
  ASSERT_TRUE(tracker.Next(&first, &lost));
  EXPECT_EQ(lost.node, 3);
  ASSERT_TRUE(tracker.ReportLost(0, lost.version));
  tracker.MarkDone(1, 4);
  tracker.MarkDone(0, 7);  // the re-run, on another node
  // A cursor that never saw the lost attempt skips its entry.
  MapOutputTracker::Cursor cursor;
  MapOutputTracker::Entry entry;
  ASSERT_TRUE(tracker.Next(&cursor, &entry));
  EXPECT_EQ(entry.map, 1);
  ASSERT_TRUE(tracker.Next(&cursor, &entry));
  EXPECT_EQ(entry.map, 0);
  EXPECT_EQ(entry.node, 7);
  EXPECT_NE(entry.version, lost.version);
  // Nothing is left: the stop releases the next call at once.
  tracker.Stop(&cursor);
  EXPECT_FALSE(tracker.Next(&cursor, &entry));
}

TEST(MapOutputTrackerTest, StaleReportLostIsIgnored) {
  MapOutputTracker tracker(1);
  tracker.MarkDone(0, 3);
  MapOutputTracker::Cursor cursor;
  MapOutputTracker::Entry v1;
  ASSERT_TRUE(tracker.Next(&cursor, &v1));
  // First reporter wins, duplicates are stale.
  EXPECT_TRUE(tracker.ReportLost(0, v1.version));
  EXPECT_FALSE(tracker.ReportLost(0, v1.version));
  tracker.MarkDone(0, 7);
  MapOutputTracker::Entry v2;
  ASSERT_TRUE(tracker.Next(&cursor, &v2));
  // A report against the old attempt leaves the new one current.
  EXPECT_FALSE(tracker.ReportLost(0, v1.version));
  MapOutputTracker::Cursor fresh;
  MapOutputTracker::Entry entry;
  ASSERT_TRUE(tracker.Next(&fresh, &entry));
  EXPECT_EQ(entry.version, v2.version);
}

TEST(MapOutputTrackerTest, CancelAndStopReleaseBlockedWaiters) {
  MapOutputTracker tracker(1);
  MapOutputTracker::Cursor stopped;
  MapOutputTracker::Cursor cancelled;
  std::atomic<int> released{0};
  auto wait = [&](MapOutputTracker::Cursor* cursor) {
    MapOutputTracker::Entry entry;
    EXPECT_FALSE(tracker.Next(cursor, &entry));
    released.fetch_add(1);
  };
  std::thread a(wait, &stopped);
  std::thread b(wait, &cancelled);
  // The log is empty, so neither waiter can return before this.
  tracker.Stop(&stopped);
  a.join();
  EXPECT_EQ(released.load(), 1);
  tracker.Cancel();
  b.join();
  EXPECT_EQ(released.load(), 2);
  // A cancelled tracker releases later callers and backoffs too.
  MapOutputTracker::Entry entry;
  MapOutputTracker::Cursor late;
  EXPECT_FALSE(tracker.Next(&late, &entry));
  EXPECT_FALSE(tracker.Backoff(&late, 60000.0));
}

TEST(MapOutputTrackerTest, BackoffRunsItsFullDelayDespiteCompletions) {
  MapOutputTracker tracker(64);
  MapOutputTracker::Cursor cursor;
  auto start = std::chrono::steady_clock::now();
  std::thread marker([&] {
    for (int m = 0; m < 64; ++m) tracker.MarkDone(m, 0);
  });
  EXPECT_TRUE(tracker.Backoff(&cursor, 20.0));
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(20));
  marker.join();
}

TEST(MapOutputStoreTest, ShuffleServiceRoundTrip) {
  auto transport = testutil::MakeTransport(3);
  MapOutputStore store;
  RegisterShuffleService(transport.get(), 1, &store);
  store.Put(4, 2, "segment-bytes");

  std::string segment;
  ASSERT_TRUE(FetchSegment(transport.get(), 1, 2, 4, 2, &segment).ok());
  EXPECT_EQ(segment, "segment-bytes");
  EXPECT_EQ(FetchSegment(transport.get(), 1, 2, 9, 9, &segment).code(),
            StatusCode::kNotFound);
  // Re-run overwrite keeps accounting straight.
  store.Put(4, 2, "new");
  EXPECT_EQ(store.stored_bytes(), 3u);
}

}  // namespace
}  // namespace bmr::mr
