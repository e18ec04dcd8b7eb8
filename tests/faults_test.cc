// Fault-injection subsystem tests: FaultPlan determinism and bounds,
// FaultInjector hook semantics, and engine-level recovery regressions
// (map re-execution after node death, reopened-commit accounting,
// reducer restart after consuming a lost attempt).
#include <gtest/gtest.h>

#include <set>

#include "apps/registry.h"
#include "apps/wordcount.h"
#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "mr/map_output.h"
#include "test_util.h"
#include "workload/generators.h"

namespace bmr {
namespace {

using faults::FaultEvent;
using faults::FaultInjector;
using faults::FaultKind;
using faults::FaultPlan;
using faults::FaultPlanOptions;
using mr::Record;
using testutil::MakeTestCluster;

TEST(FaultPlanTest, GenerateIsDeterministicInSeed) {
  FaultPlanOptions options;
  for (uint64_t seed = 0; seed < 50; ++seed) {
    FaultPlan a = FaultPlan::Generate(seed, options);
    FaultPlan b = FaultPlan::Generate(seed, options);
    EXPECT_EQ(a.ToString(), b.ToString()) << "seed " << seed;
    EXPECT_FALSE(a.events.empty());
  }
  // Different seeds must not all collapse to one plan.
  std::set<std::string> distinct;
  for (uint64_t seed = 0; seed < 50; ++seed) {
    distinct.insert(FaultPlan::Generate(seed, options).ToString());
  }
  EXPECT_GT(distinct.size(), 10u);
}

TEST(FaultPlanTest, RespectsOptionBounds) {
  FaultPlanOptions options;
  options.num_nodes = 5;
  options.max_faults = 4;
  for (uint64_t seed = 0; seed < 200; ++seed) {
    FaultPlan plan = FaultPlan::Generate(seed, options);
    EXPECT_GE(plan.events.size(), 1u);
    EXPECT_LE(plan.events.size(), 4u);
    int crashes = 0;
    for (const FaultEvent& e : plan.events) {
      if (e.kind == FaultKind::kNodeCrash) {
        ++crashes;
        EXPECT_NE(e.node, options.master_node);
        EXPECT_GE(e.node, 1);
        EXPECT_LT(e.node, options.num_nodes);
      }
    }
    EXPECT_LE(crashes, 1) << plan.ToString();
  }
}

TEST(FaultPlanTest, AllowFlagsGateKinds) {
  FaultPlanOptions options;
  options.allow_crash = false;
  options.allow_rpc = false;
  options.allow_fetch = false;
  for (uint64_t seed = 0; seed < 100; ++seed) {
    for (const FaultEvent& e : FaultPlan::Generate(seed, options).events) {
      EXPECT_TRUE(e.kind == FaultKind::kSpillWriteError ||
                  e.kind == FaultKind::kSpillReadError ||
                  e.kind == FaultKind::kSpillCorrupt)
          << faults::FaultKindName(e.kind);
    }
  }
}

FaultPlan ScriptedPlan(std::vector<FaultEvent> events) {
  FaultPlan plan;
  plan.events = std::move(events);
  return plan;
}

TEST(FaultInjectorTest, DropFiresAfterThresholdForCount) {
  FaultEvent drop;
  drop.kind = FaultKind::kRpcDrop;
  drop.method_prefix = "x.";
  drop.after_calls = 1;
  drop.count = 2;
  FaultInjector injector(ScriptedPlan({drop}));

  int duplicates = 0;
  // Non-matching method never ticks the event.
  EXPECT_TRUE(injector.OnRpcCall(0, 1, "y.read", &duplicates).ok());
  // First matching call passes (after_calls=1), next two drop, then ok.
  EXPECT_TRUE(injector.OnRpcCall(0, 1, "x.read", &duplicates).ok());
  EXPECT_EQ(injector.OnRpcCall(0, 1, "x.read", &duplicates).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(injector.OnRpcCall(0, 1, "x.read", &duplicates).code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(injector.OnRpcCall(0, 1, "x.read", &duplicates).ok());
  EXPECT_EQ(injector.injected(FaultKind::kRpcDrop), 2u);
  EXPECT_EQ(injector.DrainLog().size(), 2u);
  EXPECT_TRUE(injector.DrainLog().empty());  // drained
}

TEST(FaultInjectorTest, TargetedDropMatchesNode) {
  FaultEvent drop;
  drop.kind = FaultKind::kRpcDrop;
  drop.node = 2;
  FaultInjector injector(ScriptedPlan({drop}));
  int duplicates = 0;
  EXPECT_TRUE(injector.OnRpcCall(0, 1, "m", &duplicates).ok());
  EXPECT_FALSE(injector.OnRpcCall(0, 2, "m", &duplicates).ok());
  EXPECT_TRUE(injector.OnRpcCall(0, 2, "m", &duplicates).ok());  // spent
}

TEST(FaultInjectorTest, DuplicateSetsOutParam) {
  FaultEvent dup;
  dup.kind = FaultKind::kRpcDuplicate;
  dup.method_prefix = "shuffle.fetch.";
  FaultInjector injector(ScriptedPlan({dup}));
  int duplicates = 0;
  EXPECT_TRUE(injector.OnRpcCall(1, 2, "shuffle.fetch.7", &duplicates).ok());
  EXPECT_EQ(duplicates, 1);
  duplicates = 0;
  EXPECT_TRUE(injector.OnRpcCall(1, 2, "shuffle.fetch.7", &duplicates).ok());
  EXPECT_EQ(duplicates, 0);  // spent
}

TEST(FaultInjectorTest, CrashInvokesBoundCallbackExactlyOnce) {
  FaultEvent crash;
  crash.kind = FaultKind::kNodeCrash;
  crash.node = 3;
  crash.after_calls = 2;
  FaultInjector injector(ScriptedPlan({crash}));
  std::vector<int> killed;
  injector.BindCrash([&killed](int node) { killed.push_back(node); });
  int duplicates = 0;
  // The crash counts every RPC call, regardless of target or method.
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(injector.OnRpcCall(0, 1, "anything", &duplicates).ok());
  }
  ASSERT_EQ(killed.size(), 1u);
  EXPECT_EQ(killed[0], 3);
  EXPECT_EQ(injector.injected(FaultKind::kNodeCrash), 1u);
}

TEST(FaultInjectorTest, FetchTimeoutThenCorruptionDetectedByDecode) {
  FaultEvent timeout;
  timeout.kind = FaultKind::kFetchTimeout;
  timeout.count = 2;
  FaultEvent corrupt;
  corrupt.kind = FaultKind::kSegmentCorrupt;
  FaultInjector injector(ScriptedPlan({timeout, corrupt}));

  EXPECT_FALSE(injector.OnShuffleFetch(1, 2, 0).ok());
  EXPECT_FALSE(injector.OnShuffleFetch(1, 2, 0).ok());
  EXPECT_TRUE(injector.OnShuffleFetch(1, 2, 0).ok());

  // A corrupted segment must be detectably broken, not silently wrong.
  mr::MapOutputCollector collector(1, nullptr);
  collector.Emit("key", "value");
  auto finished = collector.Finish(/*sort=*/false, nullptr, nullptr);
  ASSERT_TRUE(finished.ok());
  std::string segment = finished->segments[0];
  ASSERT_TRUE(injector.MaybeCorruptSegment(1, 0, &segment));
  std::vector<Record> records;
  EXPECT_EQ(mr::DecodeSegment(Slice(segment), &records).code(),
            StatusCode::kDataLoss);
  EXPECT_FALSE(injector.MaybeCorruptSegment(1, 0, &segment));  // spent
}

TEST(FaultInjectorTest, SpillHooksFail) {
  FaultEvent wr;
  wr.kind = FaultKind::kSpillWriteError;
  FaultEvent rd;
  rd.kind = FaultKind::kSpillReadError;
  FaultInjector injector(ScriptedPlan({wr, rd}));
  EXPECT_EQ(injector.OnSpillWrite("/tmp/spill0").code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(injector.OnSpillWrite("/tmp/spill0").ok());
  EXPECT_EQ(injector.OnSpillRead("/tmp/spill0").code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(injector.OnSpillRead("/tmp/spill0").ok());
}

TEST(FaultInjectorTest, SpillCorruptFlipsTheLastByteOnce) {
  FaultEvent rot;
  rot.kind = FaultKind::kSpillCorrupt;
  FaultInjector injector(ScriptedPlan({rot}));
  std::string empty;
  EXPECT_FALSE(injector.MaybeCorruptSpill(&empty));  // nothing to flip
  std::string bytes = "abc";
  ASSERT_TRUE(injector.MaybeCorruptSpill(&bytes));
  EXPECT_EQ(bytes, std::string("ab") + static_cast<char>('c' ^ 1));
  EXPECT_EQ(injector.injected(FaultKind::kSpillCorrupt), 1u);
  EXPECT_FALSE(injector.MaybeCorruptSpill(&bytes));  // spent
}

// ---- Engine-level recovery regressions --------------------------------

mr::JobSpec WordCountSpec(const std::vector<std::string>& files,
                          const std::string& output_path, bool barrierless) {
  apps::AppOptions options;
  options.input_files = files;
  options.output_path = output_path;
  options.num_reducers = 2;
  options.barrierless = barrierless;
  mr::JobSpec spec = apps::MakeWordCountJob(options);
  spec.config.SetInt("job.max_restarts", 3);
  spec.config.SetInt("reduce.max_restarts", 3);
  spec.config.SetDouble("shuffle.fetch.backoff_ms", 0.2);
  spec.config.SetDouble("shuffle.fetch.backoff_max_ms", 2.0);
  return spec;
}

std::vector<std::string> MakeWordCountInput(mr::ClusterContext* cluster) {
  workload::TextGenOptions gen;
  gen.total_bytes = 48 << 10;
  gen.vocabulary = 200;
  gen.seed = 101;
  auto files = workload::GenerateZipfText(cluster, "/in", gen);
  EXPECT_TRUE(files.ok());
  return files.ok() ? *files : std::vector<std::string>{};
}

TEST(EngineRecoveryTest, NodeCrashRecoversWithIdenticalOutput) {
  // Golden: fault-free run on its own cluster with the same seeded
  // workload (generators are deterministic, so the inputs match).
  auto golden_cluster = MakeTestCluster(4, /*block_bytes=*/8 << 10);
  auto golden = testutil::RunAndReadOutput(
      golden_cluster.get(),
      WordCountSpec(MakeWordCountInput(golden_cluster.get()), "/out", true));
  ASSERT_TRUE(golden.ok()) << golden.status();

  // Chaos: node 2 dies mid-job, after some map output is committed and
  // (very likely) partially consumed by the barrier-less reducers.
  // Small blocks => several map tasks => the crash lands mid-shuffle.
  auto cluster = MakeTestCluster(4, /*block_bytes=*/8 << 10);
  auto files = MakeWordCountInput(cluster.get());
  FaultEvent crash;
  crash.kind = FaultKind::kNodeCrash;
  crash.node = 2;
  crash.after_calls = 30;
  FaultInjector injector(ScriptedPlan({crash}));
  cluster->InstallFaultInjector(&injector);
  auto out = testutil::RunAndReadOutput(cluster.get(),
                                        WordCountSpec(files, "/out", true));
  cluster->InstallFaultInjector(nullptr);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(injector.injected(FaultKind::kNodeCrash), 1u);
  EXPECT_EQ(testutil::ExactSequence(*out), testutil::ExactSequence(*golden));
}

TEST(EngineRecoveryTest, ReopenedCommitAccountingStaysConsistent) {
  // Double-commit regression for the fetch-failure path: every map
  // relaunch goes through ReopenTask, so commits == tasks + reopens.
  // If a relaunched attempt could double-commit (or a stale attempt
  // could commit against a reopened task without it), this invariant —
  // or the run itself — breaks.
  auto cluster = MakeTestCluster(4, /*block_bytes=*/8 << 10);
  auto files = MakeWordCountInput(cluster.get());
  mr::JobSpec spec = WordCountSpec(files, "/out", true);

  // Fault-free pass to learn the task count.
  mr::JobRunner runner(cluster.get());
  mr::JobResult clean = runner.Run(spec);
  ASSERT_TRUE(clean.ok()) << clean.status;
  uint64_t num_tasks = clean.counters.Get(mr::kCtrMapTasksCommitted);
  ASSERT_GT(num_tasks, 0u);
  EXPECT_EQ(clean.counters.Get(mr::kCtrMapTaskRetries), 0u);

  FaultEvent crash;
  crash.kind = FaultKind::kNodeCrash;
  crash.node = 1;
  crash.after_calls = 30;
  FaultInjector injector(ScriptedPlan({crash}));
  cluster->InstallFaultInjector(&injector);
  spec.output_path = "/out2";
  mr::JobResult result = runner.Run(spec);
  cluster->InstallFaultInjector(nullptr);
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(injector.injected(FaultKind::kNodeCrash), 1u);
  EXPECT_EQ(result.counters.Get(mr::kCtrMapTasksCommitted),
            num_tasks + result.counters.Get(mr::kCtrMapTaskRetries));
}

TEST(EngineRecoveryTest, OneSlaveClusterRelaunchesLostOutputInPlace) {
  // Regression: on a one-slave cluster, lost-map-output recovery used
  // to plan the relaunch with the lost node excluded, leaving no
  // candidate; Assign silently recorded node = -1 and the executor
  // failed the job with "no node available for map task".  The slave
  // is alive — only the output is gone — so the relaunch must rerun in
  // place and the job must complete.
  auto cluster = MakeTestCluster(1, /*block_bytes=*/8 << 10);
  workload::TextGenOptions gen;
  gen.total_bytes = 4 << 10;  // one block => one map task
  gen.num_files = 1;
  gen.vocabulary = 100;
  gen.seed = 7;
  auto files = workload::GenerateZipfText(cluster.get(), "/in", gen);
  ASSERT_TRUE(files.ok()) << files.status();

  apps::AppOptions options;
  options.input_files = *files;
  options.output_path = "/out";
  options.num_reducers = 1;
  options.barrierless = true;
  mr::JobSpec spec = apps::MakeWordCountJob(options);
  // One retry per fetch: two corrupted serves exhaust it, the tracker
  // declares the attempt's output lost, and the engine relaunches.
  spec.config.SetInt("shuffle.fetch.max_retries", 1);
  spec.config.SetDouble("shuffle.fetch.backoff_ms", 0.2);
  spec.config.SetDouble("shuffle.fetch.backoff_max_ms", 1.0);

  FaultEvent corrupt;
  corrupt.kind = FaultKind::kSegmentCorrupt;
  corrupt.count = 2;  // original fetch + its one retry
  FaultInjector injector(ScriptedPlan({corrupt}));
  cluster->InstallFaultInjector(&injector);
  mr::JobRunner runner(cluster.get());
  mr::JobResult result = runner.Run(spec);
  cluster->InstallFaultInjector(nullptr);
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(injector.injected(FaultKind::kSegmentCorrupt), 2u);
  EXPECT_GE(result.counters.Get(mr::kCtrMapTaskRetries), 1u);

  // The relaunched attempt ran somewhere real (the only slave), and
  // its output matches a fault-free run bit for bit.
  auto golden_cluster = MakeTestCluster(1, /*block_bytes=*/8 << 10);
  auto golden_files = workload::GenerateZipfText(golden_cluster.get(), "/in",
                                                 gen);
  ASSERT_TRUE(golden_files.ok());
  options.input_files = *golden_files;
  auto golden = testutil::RunAndReadOutput(golden_cluster.get(),
                                           apps::MakeWordCountJob(options));
  ASSERT_TRUE(golden.ok()) << golden.status();
  auto actual = mr::JobRunner::ReadAllOutput(cluster->client(0), result);
  ASSERT_TRUE(actual.ok());
  EXPECT_EQ(testutil::ExactSequence(*actual), testutil::ExactSequence(*golden));
}

TEST(EngineRecoveryTest, FetchTimeoutsAreRetriedNotFatal) {
  auto cluster = MakeTestCluster(3);
  auto files = MakeWordCountInput(cluster.get());
  FaultEvent timeout;
  timeout.kind = FaultKind::kFetchTimeout;
  timeout.count = 3;
  FaultInjector injector(ScriptedPlan({timeout}));
  cluster->InstallFaultInjector(&injector);
  auto out = testutil::RunAndReadOutput(cluster.get(),
                                        WordCountSpec(files, "/out", true));
  cluster->InstallFaultInjector(nullptr);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(injector.injected(FaultKind::kFetchTimeout), 3u);
}

TEST(EngineRecoveryTest, InjectedFaultsAppearInCountersAndTimeline) {
  auto cluster = MakeTestCluster(3);
  auto files = MakeWordCountInput(cluster.get());
  FaultEvent timeout;
  timeout.kind = FaultKind::kFetchTimeout;
  timeout.count = 2;
  FaultInjector injector(ScriptedPlan({timeout}));
  cluster->InstallFaultInjector(&injector);
  mr::JobRunner runner(cluster.get());
  mr::JobResult result = runner.Run(WordCountSpec(files, "/out", true));
  cluster->InstallFaultInjector(nullptr);
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(result.counters.Get("fault_injected_fetch_timeout"), 2u);
  EXPECT_GE(result.counters.Get(mr::kCtrShuffleFetchRetries), 2u);
  int fault_events = 0;
  for (const mr::TaskEvent& e : result.events) {
    if (e.phase == mr::Phase::kFault) {
      ++fault_events;
      EXPECT_EQ(e.start, e.end);
    }
  }
  EXPECT_EQ(fault_events, 2);
}

}  // namespace
}  // namespace bmr
