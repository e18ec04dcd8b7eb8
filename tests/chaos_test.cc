// Chaos/equivalence harness: many seeded random fault scenarios, each
// asserting the paper's recovery invariant — a job that survives
// injected faults (node crash, RPC drop/delay/duplicate, fetch
// timeout, segment corruption, spill I/O errors, bit rot in spill
// runs and the KV log) produces output byte-identical to a fault-free
// golden run of the same app and store.
//
// Scenario count comes from BMR_CHAOS_SEEDS (default 200); a failing
// seed is reproduced exactly by running with the same seed because
// FaultPlan::Generate is pure in the seed (see docs/GUIDE.md §8).
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "apps/registry.h"
#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "test_util.h"
#include "workload/generators.h"

namespace bmr {
namespace {

using faults::FaultEvent;
using faults::FaultInjector;
using faults::FaultKind;
using faults::FaultPlan;
using faults::FaultPlanOptions;
using mr::JobRunner;
using mr::Record;
using testutil::MakeTestCluster;

// Apps whose barrier-less output is bytewise deterministic (finalize
// emits in merged key order), so golden comparison can be exact.
const char* const kApps[] = {"wordcount", "sort", "lastfm"};
constexpr core::StoreType kStores[] = {core::StoreType::kInMemory,
                                       core::StoreType::kSpillMerge,
                                       core::StoreType::kKvStore};

int NumSeeds() {
  const char* env = std::getenv("BMR_CHAOS_SEEDS");
  if (env == nullptr) return 200;
  int n = std::atoi(env);
  return n > 0 ? n : 200;
}

// Small deterministic inputs; tiny DFS blocks so even these make
// several map tasks (more fetch traffic for faults to hit).
std::unique_ptr<mr::ClusterContext> MakeChaosCluster() {
  return MakeTestCluster(/*slaves=*/3, /*block_bytes=*/4 << 10);
}

std::vector<std::string> MakeInput(mr::ClusterContext* cluster,
                                   const std::string& app) {
  if (app == "wordcount") {
    workload::TextGenOptions gen;
    gen.total_bytes = 24 << 10;
    gen.vocabulary = 150;
    gen.seed = 7;
    return *workload::GenerateZipfText(cluster, "/in-wc", gen);
  }
  if (app == "sort") {
    workload::IntGenOptions gen;
    gen.count = 3000;
    gen.seed = 8;
    return *workload::GenerateRandomInts(cluster, "/in-sort", gen);
  }
  workload::ListenGenOptions gen;
  gen.count = 5000;
  gen.num_users = 20;
  gen.num_tracks = 100;
  gen.seed = 9;
  return *workload::GenerateListens(cluster, "/in-fm", gen);
}

mr::JobSpec MakeChaosSpec(const std::string& app,
                          const std::vector<std::string>& files,
                          core::StoreType store,
                          const std::string& output_path) {
  apps::AppOptions options;
  options.input_files = files;
  options.output_path = output_path;
  options.num_reducers = 2;
  options.barrierless = true;
  options.store.type = store;
  options.store.spill_threshold_bytes = 4 << 10;  // force spills
  options.store.kv_cache_bytes = 4 << 10;         // force evictions
  const apps::AppCase* entry = apps::FindApp(app);
  EXPECT_NE(entry, nullptr) << app;
  mr::JobSpec spec = entry->make_job(options);
  // Recovery budgets generous enough that every bounded fault plan
  // (<= 6 events, small counts) is survivable.
  spec.config.SetInt("job.max_restarts", 6);
  spec.config.SetInt("reduce.max_restarts", 4);
  spec.config.SetInt("shuffle.fetch.max_retries", 4);
  spec.config.SetDouble("shuffle.fetch.backoff_ms", 0.2);
  spec.config.SetDouble("shuffle.fetch.backoff_max_ms", 2.0);
  return spec;
}

TEST(ChaosTest, SeededScenariosMatchFaultFreeGolden) {
  const int num_seeds = NumSeeds();
  const int num_apps = 3;
  const int num_stores = 3;
  // Golden outputs per (app, store), from fault-free runs on their own
  // clusters — the deterministic workload generators reproduce the
  // exact same input on every cluster.
  std::map<std::pair<std::string, int>, std::vector<std::string>> golden;
  std::map<std::string, uint64_t> fired;

  for (int seed = 0; seed < num_seeds; ++seed) {
    const std::string app = kApps[seed % num_apps];
    core::StoreType store = kStores[(seed / num_apps) % num_stores];
    auto combo = std::make_pair(app, static_cast<int>(store));
    if (golden.find(combo) == golden.end()) {
      auto cluster = MakeChaosCluster();
      auto files = MakeInput(cluster.get(), app);
      auto out = testutil::RunAndReadOutput(
          cluster.get(), MakeChaosSpec(app, files, store, "/golden"));
      ASSERT_TRUE(out.ok()) << "golden " << app << ": " << out.status();
      golden[combo] = testutil::ExactSequence(*out);
      ASSERT_FALSE(golden[combo].empty());
    }

    FaultPlanOptions plan_options;
    plan_options.num_nodes = 4;  // 3 slaves + master (node 0, protected)
    FaultPlan plan = FaultPlan::Generate(static_cast<uint64_t>(seed),
                                         plan_options);
    FaultInjector injector(plan);
    auto cluster = MakeChaosCluster();
    auto files = MakeInput(cluster.get(), app);  // before injection
    mr::JobSpec spec = MakeChaosSpec(app, files, store, "/out");
    cluster->InstallFaultInjector(&injector);
    JobRunner runner(cluster.get());
    mr::JobResult result = runner.Run(spec);
    // Read the output fault-free: the invariant under test is engine
    // recovery, not the test's own read path.
    cluster->InstallFaultInjector(nullptr);
    ASSERT_TRUE(result.ok())
        << "seed " << seed << " app " << app << " store "
        << core::StoreTypeName(store) << ": " << result.status << "\n"
        << plan.ToString();
    auto out = JobRunner::ReadAllOutput(cluster->client(0), result,
                                        spec.output_format);
    ASSERT_TRUE(out.ok()) << "seed " << seed << ": " << out.status();
    EXPECT_EQ(testutil::ExactSequence(*out), golden[combo])
        << "seed " << seed << " app " << app << " store "
        << core::StoreTypeName(store) << "\n"
        << plan.ToString();
    for (const auto& [name, count] : injector.CounterSnapshot()) {
      fired[name] += count;
    }
  }

  // Coverage: with the default sweep every required fault family must
  // actually have fired somewhere (scheduled != fired: an event whose
  // threshold exceeds the scenario's call volume stays dormant).
  if (num_seeds >= 200) {
    EXPECT_GT(fired["fault_injected_node_crash"], 0u);
    EXPECT_GT(fired["fault_injected_rpc_drop"], 0u);
    EXPECT_GT(fired["fault_injected_rpc_delay"], 0u);
    EXPECT_GT(fired["fault_injected_fetch_timeout"], 0u);
    EXPECT_GT(fired["fault_injected_segment_corrupt"], 0u);
    EXPECT_GT(fired["fault_injected_spill_write_error"] +
                  fired["fault_injected_spill_read_error"],
              0u);
    EXPECT_GT(fired["fault_injected_spill_corrupt"], 0u);
  }
}

// Batched delivery is an implementation detail of the data plane, not
// an observable: for every store backend, shrinking the FIFO batch
// budget to pathological sizes (every record its own batch; the FIFO
// one batch deep) must yield output byte-identical to the default
// batching's golden run.
TEST(ChaosTest, BatchedDeliveryPreservesOutputAcrossStores) {
  struct BatchKnobs {
    int64_t fifo_batches;
    int64_t batch_bytes;
  };
  // Default; 1-byte budget (one record per batch, max wakeup traffic);
  // single-slot FIFO with small batches (constant full/empty edges).
  const BatchKnobs kKnobs[] = {{64, 256 << 10}, {64, 1}, {1, 512}};
  for (core::StoreType store : kStores) {
    std::vector<std::string> golden;
    for (size_t k = 0; k < std::size(kKnobs); ++k) {
      auto cluster = MakeChaosCluster();
      auto files = MakeInput(cluster.get(), "wordcount");
      mr::JobSpec spec = MakeChaosSpec("wordcount", files, store, "/out");
      spec.config.SetInt("shuffle.fifo_batches", kKnobs[k].fifo_batches);
      spec.config.SetInt("shuffle.batch_bytes", kKnobs[k].batch_bytes);
      auto out = testutil::RunAndReadOutput(cluster.get(), spec);
      ASSERT_TRUE(out.ok()) << core::StoreTypeName(store) << " knobs " << k
                            << ": " << out.status();
      auto seq = testutil::ExactSequence(*out);
      ASSERT_FALSE(seq.empty());
      if (k == 0) {
        golden = std::move(seq);
      } else {
        EXPECT_EQ(seq, golden)
            << "batch knobs (" << kKnobs[k].fifo_batches << ", "
            << kKnobs[k].batch_bytes << ") changed output for store "
            << core::StoreTypeName(store);
      }
    }
  }
}

// The shuffle codec is an implementation detail of the wire, not an
// observable: for every store backend, every `shuffle.codec` value
// must yield output byte-identical to the uncompressed golden run.
// scripts/chaos.sh re-runs this whole binary per (transport, codec)
// combination via BMR_NET_TRANSPORT / BMR_SHUFFLE_CODEC, so the full
// matrix is {mem,spill,kv} x {inproc,tcp} x {none,lz4} — with seeded
// faults riding along in the sweep above.
TEST(ChaosTest, ShuffleCodecPreservesOutputAcrossStores) {
  const char* const kCodecs[] = {"none", "lz4"};
  for (core::StoreType store : kStores) {
    std::vector<std::string> golden;
    for (size_t c = 0; c < std::size(kCodecs); ++c) {
      auto cluster = MakeChaosCluster();
      auto files = MakeInput(cluster.get(), "wordcount");
      mr::JobSpec spec = MakeChaosSpec("wordcount", files, store, "/out");
      spec.config.Set("shuffle.codec", kCodecs[c]);
      spec.config.SetInt("shuffle.block_bytes", 4 << 10);  // many blocks
      auto out = testutil::RunAndReadOutput(cluster.get(), spec);
      ASSERT_TRUE(out.ok()) << core::StoreTypeName(store) << " codec "
                            << kCodecs[c] << ": " << out.status();
      auto seq = testutil::ExactSequence(*out);
      ASSERT_FALSE(seq.empty());
      if (c == 0) {
        golden = std::move(seq);
      } else {
        EXPECT_EQ(seq, golden)
            << "codec " << kCodecs[c] << " changed output for store "
            << core::StoreTypeName(store);
      }
    }
  }
}

// An unknown codec name is a job-spec typo: the run must fail loudly
// at submit time, never fall back to an unencoded shuffle.
TEST(ChaosTest, UnknownCodecFailsTheJobUpFront) {
  auto cluster = MakeChaosCluster();
  auto files = MakeInput(cluster.get(), "wordcount");
  mr::JobSpec spec =
      MakeChaosSpec("wordcount", files, core::StoreType::kInMemory, "/out");
  spec.config.Set("shuffle.codec", "zstd-but-typoed");
  JobRunner runner(cluster.get());
  mr::JobResult result = runner.Run(spec);
  EXPECT_FALSE(result.ok());
}

// The harness has teeth: disable the recovery path and the same kind
// of fault must fail the run (and hence the sweep above would catch a
// recovery regression, not silently pass).
TEST(ChaosTest, BrokenRecoveryPathIsDetected) {
  auto cluster = MakeChaosCluster();
  auto files = MakeInput(cluster.get(), "wordcount");
  mr::JobSpec spec =
      MakeChaosSpec("wordcount", files, core::StoreType::kInMemory, "/out");
  spec.config.SetBool("shuffle.fail_on_fetch_error", true);  // no retry
  spec.config.SetInt("job.max_restarts", 0);                 // no rerun

  FaultEvent corrupt;
  corrupt.kind = FaultKind::kSegmentCorrupt;
  FaultPlan plan;
  plan.events = {corrupt};
  FaultInjector injector(plan);
  cluster->InstallFaultInjector(&injector);
  JobRunner runner(cluster.get());
  mr::JobResult result = runner.Run(spec);
  cluster->InstallFaultInjector(nullptr);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(injector.injected(FaultKind::kSegmentCorrupt), 1u);
}

}  // namespace
}  // namespace bmr
