// Partial-result store tests: correctness of all three Section-5
// schemes and their equivalence under random workloads, all driven
// through the single PartialStore::Fold entry point.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <vector>

#include "common/block_container.h"
#include "common/config.h"
#include "common/rng.h"
#include "common/serde.h"
#include "core/barrierless_driver.h"
#include "core/kvstore.h"
#include "core/partial_store.h"
#include "core/scratch_dir.h"
#include "core/spill_file.h"
#include "core/spill_merge_store.h"
#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "mr/emitter.h"

namespace bmr::core {
namespace {

/// WordCount-shaped fold: each record adds one to its key's count.
/// Counts InitPartial calls so tests can see when a key starts afresh.
class CountReducer final : public IncrementalReducer {
 public:
  std::string InitPartial(Slice) override {
    ++inits;
    return EncodeI64(0);
  }
  void Update(Slice, Slice, std::string* partial,
              mr::ReduceEmitter*) override {
    int64_t n = 0;
    DecodeI64(Slice(*partial), &n);
    *partial = EncodeI64(n + 1);
  }
  std::string MergePartials(Slice, Slice a, Slice b) override {
    int64_t x = 0, y = 0;
    DecodeI64(a, &x);
    DecodeI64(b, &y);
    return EncodeI64(x + y);
  }

  int inits = 0;
};

/// Last write wins: the record's value replaces the partial.  The
/// default MergePartials (keep the later fragment) matches.
class LastWriteWins final : public IncrementalReducer {
 public:
  void Update(Slice, Slice value, std::string* partial,
              mr::ReduceEmitter*) override {
    partial->assign(value.data(), value.size());
  }
};

/// Last.fm-shaped partial: the sorted set of distinct values seen for
/// the key, one per line.  Grows with every new value (O(records)).
class SetReducer final : public IncrementalReducer {
 public:
  void Update(Slice, Slice value, std::string* partial,
              mr::ReduceEmitter*) override {
    std::set<std::string> members = Parse(Slice(*partial));
    members.insert(value.ToString());
    *partial = Serialize(members);
  }
  std::string MergePartials(Slice, Slice a, Slice b) override {
    std::set<std::string> members = Parse(a);
    members.merge(Parse(b));
    return Serialize(members);
  }

  static std::set<std::string> Parse(Slice partial) {
    std::set<std::string> members;
    std::string_view rest = partial.view();
    while (!rest.empty()) {
      size_t nl = rest.find('\n');
      members.emplace(rest.substr(0, nl));
      rest.remove_prefix(nl + 1);
    }
    return members;
  }
  static std::string Serialize(const std::set<std::string>& members) {
    std::string out;
    for (const std::string& m : members) out += m + '\n';
    return out;
  }
};

Status FoldAll(PartialStore* store, IncrementalReducer* reducer,
               const std::vector<std::string>& keys, Slice value = Slice()) {
  for (const auto& key : keys) {
    BMR_RETURN_IF_ERROR(store->Fold(Slice(key), value, reducer, nullptr));
  }
  return Status::Ok();
}

/// Current (key → merged partial) contents, leaving the store intact.
std::map<std::string, std::string> Contents(const PartialStore& store,
                                            IncrementalReducer* reducer) {
  std::map<std::string, std::string> out;
  Status st = store.ForEachCurrent(
      [reducer](Slice key, Slice a, Slice b) {
        return reducer->MergePartials(key, a, b);
      },
      [&out](Slice k, Slice v) { out[k.ToString()] = v.ToString(); });
  EXPECT_TRUE(st.ok()) << st;
  return out;
}

int64_t Count(const std::string& partial) {
  int64_t n = 0;
  DecodeI64(Slice(partial), &n);
  return n;
}

/// Counting workload through Fold, then a draining merge — barrier-less
/// WordCount against one store.
std::map<std::string, int64_t> DriveCounts(PartialStore* store,
                                           const std::vector<std::string>& keys,
                                           Status* final_status) {
  CountReducer reducer;
  *final_status = FoldAll(store, &reducer, keys);
  if (!final_status->ok()) return {};
  std::map<std::string, int64_t> result;
  *final_status = store->ForEachMerged(
      [&reducer](Slice key, Slice a, Slice b) {
        return reducer.MergePartials(key, a, b);
      },
      [&result](Slice k, Slice v) { result[k.ToString()] += Count(v.ToString()); });
  return result;
}

std::vector<std::string> RandomKeys(size_t count, uint64_t seed,
                                    uint32_t distinct) {
  Pcg32 rng(seed);
  std::vector<std::string> keys;
  keys.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    keys.push_back("key" + std::to_string(rng.NextBounded(distinct)));
  }
  return keys;
}

std::map<std::string, int64_t> DirectCounts(
    const std::vector<std::string>& keys) {
  std::map<std::string, int64_t> out;
  for (const auto& k : keys) out[k]++;
  return out;
}

std::vector<std::string> KeyOrder(PartialStore* store) {
  std::vector<std::string> seen;
  EXPECT_TRUE(store
                  ->ForEachMerged(
                      [](Slice, Slice, Slice b) { return b.ToString(); },
                      [&seen](Slice k, Slice) { seen.push_back(k.ToString()); })
                  .ok());
  return seen;
}

TEST(InMemoryStoreTest, FoldStartsFromInitPartialAndUpdatesInPlace) {
  auto store = CreatePartialStore(StoreConfig());
  CountReducer reducer;
  ASSERT_TRUE(FoldAll(store.get(), &reducer, {"a", "b", "a", "a"}).ok());
  EXPECT_EQ(reducer.inits, 2) << "one InitPartial per new key";
  auto contents = Contents(*store, &reducer);
  EXPECT_EQ(Count(contents["a"]), 3);
  EXPECT_EQ(Count(contents["b"]), 1);
  EXPECT_EQ(store->NumKeys(), 2u);
  EXPECT_EQ(store->stats().folds, 4u);
}

TEST(InMemoryStoreTest, IteratesInKeyOrder) {
  auto store = CreatePartialStore(StoreConfig());
  LastWriteWins reducer;
  ASSERT_TRUE(
      FoldAll(store.get(), &reducer, {"zebra", "apple", "mango"}).ok());
  EXPECT_EQ(KeyOrder(store.get()),
            (std::vector<std::string>{"apple", "mango", "zebra"}));
}

TEST(InMemoryStoreTest, RespectsCustomComparator) {
  StoreConfig config;
  // Reverse lexicographic order.
  config.key_cmp = [](Slice a, Slice b) { return b.Compare(a); };
  auto store = CreatePartialStore(config);
  LastWriteWins reducer;
  ASSERT_TRUE(FoldAll(store.get(), &reducer, {"a", "c", "b"}).ok());
  EXPECT_EQ(KeyOrder(store.get()), (std::vector<std::string>{"c", "b", "a"}));
}

TEST(InMemoryStoreTest, MemoryAccountingTracksValueResizes) {
  auto store = CreatePartialStore(StoreConfig());
  LastWriteWins reducer;
  ASSERT_TRUE(
      store->Fold("k", std::string(100, 'a'), &reducer, nullptr).ok());
  uint64_t m1 = store->MemoryBytes();
  EXPECT_EQ(m1, EntryFootprint(1, 100));
  ASSERT_TRUE(store->Fold("k", std::string(10, 'b'), &reducer, nullptr).ok());
  uint64_t m2 = store->MemoryBytes();
  EXPECT_EQ(m1 - m2, 90u);
}

TEST(InMemoryStoreTest, NeverTouchesScratchDir) {
  // A scratch_dir no directory can be created under: a store that
  // never spills must not try.
  ScratchDir scratch;
  std::string file = scratch.FilePath("not_a_dir");
  std::ofstream(file) << "x";
  StoreConfig config;
  config.scratch_dir = file;
  config.spill_threshold_bytes = 1;  // ignored by kInMemory
  auto store = CreatePartialStore(config);
  CountReducer reducer;
  ASSERT_TRUE(FoldAll(store.get(), &reducer, {"a", "b", "a"}).ok());
  Status status = Status::Ok();
  auto result = DriveCounts(store.get(), {}, &status);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(result, (std::map<std::string, int64_t>{{"a", 2}, {"b", 1}}));
  EXPECT_EQ(store->stats().spills, 0u);
  EXPECT_TRUE(std::filesystem::is_regular_file(file));
}

TEST(SpillMergeStoreTest, SpillsAtThresholdAndStillAnswersCorrectly) {
  StoreConfig config;
  config.type = StoreType::kSpillMerge;
  config.spill_threshold_bytes = 4096;  // force many spills
  SpillMergeStore store(config);

  auto keys = RandomKeys(5000, 17, 200);
  Status status = Status::Ok();
  auto result = DriveCounts(&store, keys, &status);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_GT(store.stats().spills, 0u);
  EXPECT_EQ(result, DirectCounts(keys));
}

TEST(SpillMergeStoreTest, MergedIterationIsKeyOrdered) {
  StoreConfig config;
  config.type = StoreType::kSpillMerge;
  config.spill_threshold_bytes = 1024;
  SpillMergeStore store(config);
  LastWriteWins reducer;
  ASSERT_TRUE(FoldAll(&store, &reducer, RandomKeys(2000, 5, 100), "x").ok());
  std::vector<std::string> order = KeyOrder(&store);
  ASSERT_FALSE(order.empty());
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_LT(order[i - 1], order[i]) << "duplicate or misordered key";
  }
}

TEST(SpillMergeStoreTest, ExplicitSpillRestartsFromInitPartial) {
  StoreConfig config;
  config.type = StoreType::kSpillMerge;
  SpillMergeStore store(config);
  CountReducer reducer;
  ASSERT_TRUE(FoldAll(&store, &reducer, {"k", "k", "k", "k", "k"}).ok());
  ASSERT_TRUE(store.SpillNow().ok());
  EXPECT_EQ(store.MemoryBytes(), 0u);
  // After a spill the memtable no longer knows the key: the paper's
  // scheme restarts the partial and reconciles in the merge.
  ASSERT_TRUE(FoldAll(&store, &reducer, {"k", "k"}).ok());
  EXPECT_EQ(reducer.inits, 2);
  Status status = Status::Ok();
  auto result = DriveCounts(&store, {}, &status);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(result["k"], 7);
}

TEST(SpillMergeStoreTest, CustomComparatorAcrossSpills) {
  StoreConfig config;
  config.type = StoreType::kSpillMerge;
  config.key_cmp = [](Slice a, Slice b) { return b.Compare(a); };
  config.spill_threshold_bytes = 2048;
  SpillMergeStore store(config);
  auto keys = RandomKeys(3000, 11, 120);
  CountReducer reducer;
  ASSERT_TRUE(FoldAll(&store, &reducer, keys).ok());
  EXPECT_GE(store.stats().spills, 3u);
  std::vector<std::pair<std::string, int64_t>> out;
  ASSERT_TRUE(store
                  .ForEachMerged(
                      [&reducer](Slice key, Slice a, Slice b) {
                        return reducer.MergePartials(key, a, b);
                      },
                      [&out](Slice k, Slice v) {
                        out.emplace_back(k.ToString(), Count(v.ToString()));
                      })
                  .ok());
  auto expected = DirectCounts(keys);
  ASSERT_EQ(out.size(), expected.size());
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_GT(out[i - 1].first, out[i].first) << "not strictly descending";
  }
  for (const auto& [key, count] : out) EXPECT_EQ(count, expected[key]) << key;
}

TEST(SpillMergeStoreTest, SpillRunsAreKeyOrdered) {
  ScratchDir scratch;
  StoreConfig config;
  config.type = StoreType::kSpillMerge;
  config.scratch_dir = scratch.path();
  SpillMergeStore store(config);
  CountReducer reducer;
  auto keys = RandomKeys(2000, 23, 500);  // random arrival order
  ASSERT_TRUE(FoldAll(&store, &reducer, keys).ok());
  ASSERT_TRUE(store.SpillNow().ok());

  std::vector<std::string> runs;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(scratch.path())) {
    if (entry.is_regular_file()) runs.push_back(entry.path().string());
  }
  ASSERT_EQ(runs.size(), 1u);
  SpillFileReader reader(runs[0], std::filesystem::file_size(runs[0]));
  std::vector<std::string> run_keys;
  std::string key, value;
  bool has = true;
  while (true) {
    ASSERT_TRUE(reader.Next(&key, &value, &has).ok());
    if (!has) break;
    run_keys.push_back(key);
  }
  EXPECT_EQ(run_keys.size(), DirectCounts(keys).size());
  for (size_t i = 1; i < run_keys.size(); ++i) {
    EXPECT_LT(run_keys[i - 1], run_keys[i]) << "spill run out of key order";
  }
}

/// The heap cap over both memtable stores (kInMemory is kSpillMerge
/// that never spills), built through the factory as the engine does.
class HeapCapTest : public ::testing::TestWithParam<StoreType> {};

TEST_P(HeapCapTest, RejectsBeforeMutation) {
  StoreConfig config;
  config.type = GetParam();
  config.heap_limit_bytes = 512;
  config.spill_threshold_bytes = 1 << 30;  // never spill in this test
  auto store = CreatePartialStore(config);
  LastWriteWins reducer;
  ASSERT_TRUE(store->Fold("small", "v", &reducer, nullptr).ok());
  uint64_t keys_before = store->NumKeys();
  uint64_t bytes_before = store->MemoryBytes();
  uint64_t peak_before = store->stats().peak_memory_bytes;

  Status st = store->Fold("huge", std::string(4096, 'x'), &reducer, nullptr);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st;
  // The rejected fold must not have touched the memtable or stats: no
  // phantom key, no inflated byte count, no moved peak.
  EXPECT_EQ(store->NumKeys(), keys_before);
  EXPECT_EQ(store->MemoryBytes(), bytes_before);
  EXPECT_EQ(store->stats().peak_memory_bytes, peak_before);
  // An oversize fold into an existing key is also rejected unmutated.
  st = store->Fold("small", std::string(4096, 'y'), &reducer, nullptr);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st;
  EXPECT_EQ(Contents(*store, &reducer)["small"], "v");
  // The store remains usable after rejections.
  ASSERT_TRUE(store->Fold("other", "w", &reducer, nullptr).ok());
}

INSTANTIATE_TEST_SUITE_P(MemtableStores, HeapCapTest,
                         ::testing::Values(StoreType::kInMemory,
                                           StoreType::kSpillMerge));

TEST(KvStoreTest, EvictsToDiskAndPagesBackIn) {
  StoreConfig config;
  config.type = StoreType::kKvStore;
  config.kv_cache_bytes = 2048;  // tiny cache
  KvStoreBackend store(config);
  CountReducer reducer;

  std::vector<std::string> keys;
  for (int i = 0; i < 200; ++i) keys.push_back("key" + std::to_string(i));
  ASSERT_TRUE(FoldAll(&store, &reducer, keys).ok());
  EXPECT_GT(store.evictions(), 0u);
  // A second pass pages evicted counts back in from the log; a lost or
  // stale page-in would restart or undercount the key.
  ASSERT_TRUE(FoldAll(&store, &reducer, keys).ok());
  EXPECT_EQ(reducer.inits, 200);
  EXPECT_GT(store.cache_misses(), 0u);
  EXPECT_GT(store.stats().disk_reads, 0u);
  auto contents = Contents(store, &reducer);
  ASSERT_EQ(contents.size(), 200u);
  for (const auto& [key, partial] : contents) {
    EXPECT_EQ(Count(partial), 2) << key;
  }
}

TEST(KvStoreTest, UpdatedValueWinsAfterEviction) {
  StoreConfig config;
  config.type = StoreType::kKvStore;
  config.kv_cache_bytes = 1024;
  KvStoreBackend store(config);
  LastWriteWins reducer;
  const std::string fill(64, 'x');
  ASSERT_TRUE(store.Fold("target", "old", &reducer, nullptr).ok());
  for (int i = 0; i < 100; ++i) {  // push "target" out of cache
    ASSERT_TRUE(
        store.Fold("fill" + std::to_string(i), fill, &reducer, nullptr).ok());
  }
  ASSERT_TRUE(store.Fold("target", "new", &reducer, nullptr).ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        store.Fold("fill2" + std::to_string(i), fill, &reducer, nullptr).ok());
  }
  EXPECT_EQ(Contents(store, &reducer)["target"], "new");
}

TEST(KvStoreTest, FlippedLogByteIsDataLossOnPageIn) {
  // The index keeps a checksum of every value it wrote: a byte flipped
  // in the log under an evicted key must surface when the key is paged
  // back in, not be folded as if it were the partial.
  ScratchDir scratch;
  StoreConfig config;
  config.type = StoreType::kKvStore;
  config.scratch_dir = scratch.path();
  config.kv_cache_bytes = 1024;  // every value below is evicted at once
  KvStoreBackend store(config);
  LastWriteWins reducer;
  // "target" is written first, at offset 0; the megabyte written after
  // it pushes it out of any stdio buffer onto disk.
  const std::string big(64 << 10, 'x');
  ASSERT_TRUE(store.Fold("target", big, &reducer, nullptr).ok());
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(
        store.Fold("fill" + std::to_string(i), big, &reducer, nullptr).ok());
  }
  std::string log;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(scratch.path())) {
    if (entry.path().filename() == "kvlog") log = entry.path().string();
  }
  ASSERT_FALSE(log.empty()) << "no kvlog under " << scratch.path();
  {
    std::fstream f(log, std::ios::in | std::ios::out | std::ios::binary);
    char c = 0;
    ASSERT_TRUE(f.read(&c, 1));
    ASSERT_EQ(c, 'x');
    f.seekp(0);
    c = static_cast<char>(c ^ 0x10);
    ASSERT_TRUE(f.write(&c, 1));
  }
  Status st = store.Fold("target", "new", &reducer, nullptr);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st;
}

TEST(KvStoreTest, DirtyEvictionWriteFailureSurfacesFromFold) {
  faults::FaultEvent fail;
  fail.kind = faults::FaultKind::kSpillWriteError;
  fail.count = 1;  // exactly the first log write fails
  faults::FaultPlan plan;
  plan.events = {fail};
  faults::FaultInjector injector(plan);

  StoreConfig config;
  config.type = StoreType::kKvStore;
  config.kv_cache_bytes = 1024;  // tiny: filling evicts dirty entries
  config.fault_injector = &injector;
  KvStoreBackend store(config);
  LastWriteWins reducer;

  const std::string value(64, 'x');
  Status last = Status::Ok();
  for (int i = 0; i < 100 && last.ok(); ++i) {
    last = store.Fold("key" + std::to_string(i), value, &reducer, nullptr);
  }
  // The dirty victim's write-back failed; the fold that triggered the
  // eviction must report it, not swallow it.
  EXPECT_EQ(last.code(), StatusCode::kUnavailable) << last;
}

TEST(KvStoreTest, EvictionWriteFailureSurfacesFromPageIn) {
  // The same data-loss hazard on a cache miss: the fold pages a value
  // in, and the eviction making room writes back a dirty victim.
  faults::FaultEvent fail;
  fail.kind = faults::FaultKind::kSpillWriteError;
  fail.after_calls = 1;  // let the first write-back through
  fail.count = 1;
  faults::FaultPlan plan;
  plan.events = {fail};
  faults::FaultInjector injector(plan);

  StoreConfig config;
  config.type = StoreType::kKvStore;
  config.kv_cache_bytes = 512;
  config.fault_injector = &injector;
  KvStoreBackend store(config);
  LastWriteWins reducer;

  // Two entries that can't coexist in the cache: folding A then B
  // evicts A (write-back #1, allowed through).  Folding A again pages
  // it back in and evicts dirty B (write-back #2, injected to fail).
  ASSERT_TRUE(store.Fold("aaaa", std::string(300, 'a'), &reducer, nullptr).ok());
  ASSERT_TRUE(store.Fold("bbbb", std::string(300, 'b'), &reducer, nullptr).ok());
  uint64_t misses_before = store.cache_misses();
  Status st = store.Fold("aaaa", std::string(300, 'A'), &reducer, nullptr);
  EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st;
  EXPECT_EQ(store.cache_misses(), misses_before + 1) << "fold paged A in";
}

/// Everything a store exposes, for comparing two stores byte for byte.
struct StoreView {
  std::vector<std::pair<std::string, std::string>> entries;
  uint64_t keys = 0, memory = 0, folds = 0, spills = 0, spilled_bytes = 0,
           disk_reads = 0, peak = 0;
  bool operator==(const StoreView&) const = default;
};

StoreView ViewOf(PartialStore* store, IncrementalReducer* reducer,
                 bool drain) {
  StoreView view;
  auto merge = [reducer](Slice key, Slice a, Slice b) {
    return reducer->MergePartials(key, a, b);
  };
  auto collect = [&view](Slice k, Slice v) {
    view.entries.emplace_back(k.ToString(), v.ToString());
  };
  Status st = drain ? store->ForEachMerged(merge, collect)
                    : store->ForEachCurrent(merge, collect);
  EXPECT_TRUE(st.ok()) << st;
  const StoreStats& stats = store->stats();
  view.keys = store->NumKeys();
  view.memory = store->MemoryBytes();
  view.folds = stats.folds;
  view.spills = stats.spills;
  view.spilled_bytes = stats.spilled_bytes;
  view.disk_reads = stats.disk_reads;
  view.peak = stats.peak_memory_bytes;
  return view;
}

TEST(SpillMergeStoreTest, InPlaceFoldMatchesCappedCopyFold) {
  // Without a heap cap Update runs on the stored partial; under a cap
  // it runs on a copy.  A cap far above the footprint never rejects,
  // so the two paths must agree on every byte and every statistic.
  StoreConfig config;
  config.type = StoreType::kSpillMerge;
  config.spill_threshold_bytes = 4096;
  SpillMergeStore in_place(config);
  config.heap_limit_bytes = 1ull << 30;
  SpillMergeStore copied(config);
  SetReducer reducer;
  Pcg32 rng(29);
  for (int i = 1; i <= 3000; ++i) {
    std::string track = "track" + std::to_string(rng.NextBounded(40));
    std::string user = "user" + std::to_string(rng.NextBounded(300));
    ASSERT_TRUE(in_place.Fold(Slice(track), Slice(user), &reducer, nullptr).ok());
    ASSERT_TRUE(copied.Fold(Slice(track), Slice(user), &reducer, nullptr).ok());
    if (i % 1000 == 0) {
      EXPECT_EQ(ViewOf(&in_place, &reducer, false),
                ViewOf(&copied, &reducer, false)) << "after " << i << " folds";
    }
  }
  EXPECT_GE(in_place.stats().spills, 3u);
  StoreView drained = ViewOf(&in_place, &reducer, true);
  EXPECT_FALSE(drained.entries.empty());
  EXPECT_EQ(drained, ViewOf(&copied, &reducer, true));
}

/// Property: all three stores produce identical merged results on the
/// same random fold workloads.
struct StoreCase {
  StoreType type;
  uint64_t threshold_or_cache;
};

class StoreEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<StoreCase, uint64_t>> {
 protected:
  StoreConfig MakeConfig() const {
    StoreCase store_case = std::get<0>(GetParam());
    StoreConfig config;
    config.type = store_case.type;
    config.spill_threshold_bytes = store_case.threshold_or_cache;
    config.kv_cache_bytes = store_case.threshold_or_cache;
    return config;
  }
  uint64_t Seed() const { return std::get<1>(GetParam()); }
};

TEST_P(StoreEquivalenceTest, CountsMatchInMemoryReference) {
  auto store = CreatePartialStore(MakeConfig());
  ASSERT_NE(store, nullptr);
  auto keys = RandomKeys(4000, Seed(), 150);
  Status status = Status::Ok();
  auto result = DriveCounts(store.get(), keys, &status);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(result, DirectCounts(keys));
}

TEST_P(StoreEquivalenceTest, SetValuedPartialsMatchReference) {
  // Last.fm unique listeners: each key's partial is the set of users
  // that played it, so partials grow and change size on every fold.
  auto store = CreatePartialStore(MakeConfig());
  ASSERT_NE(store, nullptr);
  SetReducer reducer;
  Pcg32 rng(Seed() + 100);
  std::map<std::string, std::set<std::string>> reference;
  for (int i = 0; i < 3000; ++i) {
    std::string track = "track" + std::to_string(rng.NextBounded(60));
    std::string user = "user" + std::to_string(rng.NextBounded(400));
    ASSERT_TRUE(store->Fold(Slice(track), Slice(user), &reducer, nullptr).ok());
    reference[track].insert(user);
  }
  std::map<std::string, std::set<std::string>> result;
  ASSERT_TRUE(store
                  ->ForEachMerged(
                      [&reducer](Slice key, Slice a, Slice b) {
                        return reducer.MergePartials(key, a, b);
                      },
                      [&result](Slice k, Slice v) {
                        EXPECT_EQ(result.count(k.ToString()), 0u);
                        result[k.ToString()] = SetReducer::Parse(v);
                      })
                  .ok());
  EXPECT_EQ(result, reference);
}

TEST_P(StoreEquivalenceTest, PreloadThenFoldThroughDriver) {
  // Memoization (§8): a previous run's partials are installed verbatim,
  // then new records fold on top of them.
  CountReducer reducer;
  BarrierlessDriver driver(&reducer, MakeConfig(), Config());
  std::map<std::string, int64_t> expected;
  for (int i = 0; i < 50; ++i) {
    std::string key = "key" + std::to_string(i * 3);
    expected[key] = 10 + i;
    ASSERT_TRUE(
        driver.PreloadPartial(Slice(key), Slice(EncodeI64(10 + i))).ok());
  }
  EXPECT_EQ(reducer.inits, 0) << "preload installs, it does not fold";
  auto keys = RandomKeys(4000, Seed(), 150);
  std::vector<mr::Record> out;
  mr::VectorEmitter<std::vector<mr::Record>> emitter(&out);
  for (const auto& key : keys) {
    ASSERT_TRUE(driver.Consume(Slice(key), Slice(), &emitter).ok());
    ++expected[key];
  }
  ASSERT_TRUE(driver.Finalize(&emitter).ok());
  std::map<std::string, int64_t> result;
  for (const mr::Record& r : out) result[r.key] = Count(r.value);
  EXPECT_EQ(result, expected);
  EXPECT_EQ(driver.store()->stats().folds, 50u + keys.size());
}

TEST_P(StoreEquivalenceTest, ArrivalOrderDoesNotChangeOutput) {
  // Two permutations of the same set-valued records: whatever order the
  // stores index keys in internally, both scans emit the same bytes.
  Pcg32 rng(Seed() + 200);
  std::vector<std::pair<std::string, std::string>> records;
  for (int i = 0; i < 3000; ++i) {
    records.emplace_back("track" + std::to_string(rng.NextBounded(300)),
                         "user" + std::to_string(rng.NextBounded(50)));
  }
  auto reversed = records;
  std::reverse(reversed.begin(), reversed.end());
  auto shuffled = records;
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1],
              shuffled[rng.NextBounded(static_cast<uint32_t>(i))]);
  }
  SetReducer reducer;
  PartialStore::MergeFn merge = [&reducer](Slice key, Slice a, Slice b) {
    return reducer.MergePartials(key, a, b);
  };
  struct Scans {
    std::string current;
    std::string merged;
  };
  auto scan = [&](const std::vector<std::pair<std::string, std::string>>&
                      arrival) {
    auto store = CreatePartialStore(MakeConfig());
    for (const auto& [key, value] : arrival) {
      EXPECT_TRUE(store->Fold(Slice(key), Slice(value), &reducer, nullptr).ok());
    }
    Scans out;
    auto append_to = [](std::string* bytes) {
      return [bytes](Slice k, Slice v) {
        bytes->append(k.data(), k.size()).append(1, '\0');
        bytes->append(v.data(), v.size()).append(1, '\0');
      };
    };
    EXPECT_TRUE(store->ForEachCurrent(merge, append_to(&out.current)).ok());
    EXPECT_TRUE(store->ForEachMerged(merge, append_to(&out.merged)).ok());
    return out;
  };
  Scans a = scan(reversed);
  Scans b = scan(shuffled);
  EXPECT_FALSE(a.merged.empty());
  EXPECT_EQ(a.current, b.current);
  EXPECT_EQ(a.merged, b.merged);
  EXPECT_EQ(a.current, a.merged);
}

INSTANTIATE_TEST_SUITE_P(
    AllStores, StoreEquivalenceTest,
    ::testing::Combine(
        ::testing::Values(StoreCase{StoreType::kInMemory, 0},
                          StoreCase{StoreType::kSpillMerge, 2048},
                          StoreCase{StoreType::kSpillMerge, 16384},
                          StoreCase{StoreType::kKvStore, 1024},
                          StoreCase{StoreType::kKvStore, 65536}),
        ::testing::Values(1u, 2u, 3u)));

TEST(SpillFileTest, WriterReaderRoundTrip) {
  ScratchDir scratch;
  std::string path = scratch.FilePath("f");
  SpillFileWriter writer(path);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(writer
                    .Append("key" + std::to_string(i),
                            std::string(i % 40, 'v'))
                    .ok());
  }
  ASSERT_TRUE(writer.Close().ok());

  SpillFileReader reader(path, writer.bytes_written());
  for (int i = 0; i < 100; ++i) {
    std::string key, value;
    bool has = false;
    ASSERT_TRUE(reader.Next(&key, &value, &has).ok());
    ASSERT_TRUE(has) << "premature EOF at " << i;
    EXPECT_EQ(key, "key" + std::to_string(i));
    EXPECT_EQ(value, std::string(i % 40, 'v'));
  }
  std::string key, value;
  bool has = true;
  ASSERT_TRUE(reader.Next(&key, &value, &has).ok());
  EXPECT_FALSE(has);
}

TEST(SpillFileTest, EmptyFileYieldsNoRecords) {
  ScratchDir scratch;
  std::string path = scratch.FilePath("empty");
  SpillFileWriter writer(path);
  ASSERT_TRUE(writer.Close().ok());
  EXPECT_EQ(writer.bytes_written(), 0u);
  SpillFileReader reader(path, writer.bytes_written());
  std::string k, v;
  bool has = true;
  ASSERT_TRUE(reader.Next(&k, &v, &has).ok());
  EXPECT_FALSE(has);
}

TEST(SpillFileTest, ReadErrorIsNotEndOfRun) {
  // On Linux a directory opens with fopen("rb") but every fread fails
  // (EISDIR).  A failed read at a record boundary must surface, not
  // read as a clean end of run that silently drops the rest of it.
  ScratchDir scratch;
  SpillFileReader reader(scratch.path(), /*run_bytes=*/0);
  std::string k, v;
  bool has = true;
  Status st = reader.Next(&k, &v, &has);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st;
}

TEST(SpillFileTest, FailedOpenSurfacesAtFirstUse) {
  ScratchDir scratch;
  const std::string missing = scratch.FilePath("no/such/dir/run");
  SpillFileWriter writer(missing);
  EXPECT_EQ(writer.Close().code(), StatusCode::kInternal);
  SpillFileReader reader(missing, /*run_bytes=*/0);
  std::string k, v;
  bool has = true;
  EXPECT_EQ(reader.Next(&k, &v, &has).code(), StatusCode::kInternal);
}

TEST(SpillFileTest, RecordOverTheContainerCapFailsAtAppend) {
  // A container decodes to at most kMaxSegmentRawBytes.  A record that
  // cannot fit in one must fail loudly when appended, and the run keeps
  // only what was appended before it, readable as written.
  ScratchDir scratch;
  std::string path = scratch.FilePath("f");
  SpillFileWriter writer(path);
  ASSERT_TRUE(writer.Append("small", "v").ok());
  const std::string huge(kMaxSegmentRawBytes, 'v');
  Status st = writer.Append("huge", huge);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st;
  ASSERT_TRUE(writer.Close().ok());

  SpillFileReader reader(path, writer.bytes_written());
  std::string k, v;
  bool has = false;
  ASSERT_TRUE(reader.Next(&k, &v, &has).ok());
  ASSERT_TRUE(has);
  EXPECT_EQ(k, "small");
  ASSERT_TRUE(reader.Next(&k, &v, &has).ok());
  EXPECT_FALSE(has);
}

}  // namespace
}  // namespace bmr::core
