// Edge cases and failure injection across the stack.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <thread>

#include "apps/blackscholes.h"
#include "apps/genetic.h"
#include "apps/grep.h"
#include "apps/knn.h"
#include "apps/sort.h"
#include "apps/wordcount.h"
#include "common/rng.h"
#include "common/serde.h"
#include "core/scratch_dir.h"
#include "mr/timeline.h"
#include "sim/flownet.h"
#include "test_util.h"
#include "workload/generators.h"

namespace bmr {
namespace {

using mr::JobResult;
using mr::JobRunner;
using mr::Record;
using testutil::MakeTestCluster;

TEST(EngineEdgeTest, BarrierlessOomKillsJobWithResourceExhausted) {
  auto cluster = MakeTestCluster(2);
  workload::TextGenOptions gen;
  gen.total_bytes = 64 << 10;
  gen.vocabulary = 5000;  // many distinct keys
  auto files = workload::GenerateZipfText(cluster.get(), "/in", gen);
  ASSERT_TRUE(files.ok());

  apps::AppOptions options;
  options.input_files = *files;
  options.output_path = "/out";
  options.num_reducers = 2;
  options.barrierless = true;
  options.store.heap_limit_bytes = 2048;  // tiny reducer heap

  JobRunner runner(cluster.get());
  JobResult result = runner.Run(apps::MakeWordCountJob(options));
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.failed_oom()) << result.status;
  // The same job with spill-and-merge survives: the §5.1 fix.
  options.store.type = core::StoreType::kSpillMerge;
  options.store.heap_limit_bytes = 0;
  options.store.spill_threshold_bytes = 2048;
  options.output_path = "/out2";
  JobResult fixed = runner.Run(apps::MakeWordCountJob(options));
  EXPECT_TRUE(fixed.ok()) << fixed.status;
  EXPECT_GT(fixed.counters.Get(mr::kCtrSpills), 0u);
}

TEST(EngineEdgeTest, SingleLineInput) {
  auto cluster = MakeTestCluster(2);
  ASSERT_TRUE(cluster->client(1)->WriteFile("/one", "hello world hello").ok());
  apps::AppOptions options;
  options.input_files = {"/one"};
  options.output_path = "/out";
  options.num_reducers = 1;
  options.barrierless = true;
  JobRunner runner(cluster.get());
  JobResult result = runner.Run(apps::MakeWordCountJob(options));
  ASSERT_TRUE(result.ok()) << result.status;
  auto out = JobRunner::ReadAllOutput(cluster->client(0), result);
  ASSERT_TRUE(out.ok());
  auto as_map = testutil::AsMap(*out);
  ASSERT_EQ(as_map.size(), 2u);
  EXPECT_EQ(apps::DecodeCount(Slice(as_map["hello"])), 2);
  EXPECT_EQ(apps::DecodeCount(Slice(as_map["world"])), 1);
}

TEST(EngineEdgeTest, MoreReducersThanKeys) {
  auto cluster = MakeTestCluster(3);
  ASSERT_TRUE(cluster->client(1)->WriteFile("/tiny", "a b a\n").ok());
  apps::AppOptions options;
  options.input_files = {"/tiny"};
  options.output_path = "/out";
  options.num_reducers = 6;  // most reducers get nothing
  options.barrierless = true;
  JobRunner runner(cluster.get());
  JobResult result = runner.Run(apps::MakeWordCountJob(options));
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(result.output_files.size(), 6u);  // empty parts still written
  auto out = JobRunner::ReadAllOutput(cluster->client(0), result);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 2u);
}

TEST(SortEdgeTest, NegativeValuesAndDuplicatesStaySorted) {
  auto cluster = MakeTestCluster(2);
  std::string data;
  for (int v : {5, -3, 0, 5, -3, 100, -100, 0, 0}) {
    data += std::to_string(v) + "\n";
  }
  ASSERT_TRUE(cluster->client(1)->WriteFile("/ints", data).ok());
  apps::AppOptions options;
  options.input_files = {"/ints"};
  options.output_path = "/out";
  options.num_reducers = 2;
  options.barrierless = true;
  options.extra.SetInt("sort.min", -100);
  options.extra.SetInt("sort.max", 100);
  JobRunner runner(cluster.get());
  JobResult result = runner.Run(apps::MakeSortJob(options));
  ASSERT_TRUE(result.ok()) << result.status;
  auto out = JobRunner::ReadAllOutput(cluster->client(0), result);
  ASSERT_TRUE(out.ok());
  std::vector<int64_t> values;
  for (const Record& r : *out) {
    int64_t v;
    ASSERT_TRUE(DecodeOrderedI64(Slice(r.key), &v));
    values.push_back(v);
  }
  EXPECT_EQ(values, (std::vector<int64_t>{-100, -3, -3, 0, 0, 0, 5, 5, 100}));
}

TEST(KnnEdgeTest, KLargerThanTrainingSetEmitsEverything) {
  auto cluster = MakeTestCluster(2);
  ASSERT_TRUE(cluster->client(1)->WriteFile("/exp", "10\n20\n").ok());
  apps::AppOptions options;
  options.input_files = {"/exp"};
  options.output_path = "/out";
  options.num_reducers = 1;
  options.barrierless = true;
  options.extra.SetInt("knn.k", 50);  // training set has only 3 values
  options.extra.Set("knn.training", apps::EncodeTrainingSet({1, 2, 3}));
  JobRunner runner(cluster.get());
  JobResult result = runner.Run(apps::MakeKnnJob(options));
  ASSERT_TRUE(result.ok()) << result.status;
  auto out = JobRunner::ReadAllOutput(cluster->client(0), result);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 6u);  // 2 exps x 3 training values
}

TEST(GrepEdgeTest, NoMatchesProducesEmptyOutput) {
  auto cluster = MakeTestCluster(2);
  ASSERT_TRUE(cluster->client(1)->WriteFile("/f", "aaa\nbbb\n").ok());
  apps::AppOptions options;
  options.input_files = {"/f"};
  options.output_path = "/out";
  options.num_reducers = 2;
  options.barrierless = true;
  options.extra.Set("grep.pattern", "zzz");
  JobRunner runner(cluster.get());
  JobResult result = runner.Run(apps::MakeGrepJob(options));
  ASSERT_TRUE(result.ok());
  auto out = JobRunner::ReadAllOutput(cluster->client(0), result);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
}

TEST(GeneticEdgeTest, WindowLargerThanPopulationFlushesOnce) {
  auto cluster = MakeTestCluster(2);
  ASSERT_TRUE(cluster->client(1)->WriteFile("/pop", "7\n11\n13\n").ok());
  apps::AppOptions options;
  options.input_files = {"/pop"};
  options.output_path = "/out";
  options.num_reducers = 1;
  options.barrierless = true;
  options.extra.SetInt("ga.window", 1000);
  JobRunner runner(cluster.get());
  JobResult result = runner.Run(apps::MakeGeneticJob(options));
  ASSERT_TRUE(result.ok()) << result.status;
  auto out = JobRunner::ReadAllOutput(cluster->client(0), result);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 3u);  // one offspring per individual
}

TEST(BlackScholesEdgeTest, ZeroIterationsYieldNoOutput) {
  auto cluster = MakeTestCluster(2);
  ASSERT_TRUE(cluster->client(1)->WriteFile("/units", "1 0\n").ok());
  apps::AppOptions options;
  options.input_files = {"/units"};
  options.output_path = "/out";
  options.barrierless = true;
  JobRunner runner(cluster.get());
  JobResult result = runner.Run(apps::MakeBlackScholesJob(options));
  ASSERT_TRUE(result.ok()) << result.status;
  auto out = JobRunner::ReadAllOutput(cluster->client(0), result);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());  // count==0: nothing to summarize
}

TEST(GeneticEdgeTest, ChainedGenerationsRaiseFitness) {
  auto cluster = MakeTestCluster(3);
  workload::PopulationGenOptions gen;
  gen.population = 6000;
  gen.seed = 8;
  auto files = workload::GeneratePopulation(cluster.get(), "/g0", gen);
  ASSERT_TRUE(files.ok());

  JobRunner runner(cluster.get());
  std::vector<std::string> inputs = *files;
  double first_mean = 0, last_mean = 0;
  for (int g = 1; g <= 4; ++g) {
    apps::AppOptions options;
    options.input_files = inputs;
    options.output_path = "/g" + std::to_string(g);
    options.num_reducers = 2;
    options.barrierless = true;
    options.extra.SetInt("ga.window", 64);
    options.extra.SetInt("ga.seed", g);
    if (g > 1) options.extra.SetBool("ga.kv_input", true);
    JobResult result = runner.Run(apps::MakeGeneticJob(options));
    ASSERT_TRUE(result.ok()) << "generation " << g << ": " << result.status;
    auto out = JobRunner::ReadAllOutput(cluster->client(0), result);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->size(), 6000u);  // population size invariant
    double mean = 0;
    for (const auto& r : *out) {
      int64_t f = 0;
      DecodeI64(Slice(r.value), &f);
      mean += static_cast<double>(f);
    }
    mean /= out->size();
    if (g == 1) first_mean = mean;
    last_mean = mean;
    inputs = result.output_files;
  }
  EXPECT_GT(last_mean, first_mean + 1.0);  // selection pressure works
}

TEST(EngineEdgeTest, NodeKilledMidJobStillCompletesCorrectly) {
  auto cluster = MakeTestCluster(4);
  workload::TextGenOptions gen;
  gen.total_bytes = 256 << 10;
  gen.vocabulary = 300;
  gen.seed = 66;
  auto files = workload::GenerateZipfText(cluster.get(), "/in", gen);
  ASSERT_TRUE(files.ok());

  JobRunner runner(cluster.get());
  apps::AppOptions options;
  options.input_files = *files;
  options.output_path = "/ref";
  options.num_reducers = 3;
  options.barrierless = true;
  JobResult reference = runner.Run(apps::MakeWordCountJob(options));
  ASSERT_TRUE(reference.ok());
  auto expected = JobRunner::ReadAllOutput(cluster->client(0), reference);
  ASSERT_TRUE(expected.ok());

  // Kill a slave from a concurrent thread while the job runs.  Timing
  // is nondeterministic; correctness must hold regardless of when the
  // failure lands (map running, fetch in flight, or already done).
  options.output_path = "/killed";
  std::thread killer([&cluster] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cluster->KillNode(3);
  });
  JobResult result = runner.Run(apps::MakeWordCountJob(options));
  killer.join();
  ASSERT_TRUE(result.ok()) << result.status;
  auto actual = JobRunner::ReadAllOutput(cluster->client(0), result);
  ASSERT_TRUE(actual.ok());
  EXPECT_EQ(testutil::AsMap(*actual), testutil::AsMap(*expected));
}

TEST(FlowNetPropertyTest, BytesConserved) {
  sim::Simulation simulation;
  sim::FlowNetConfig config;
  config.num_nodes = 6;
  config.link_bytes_per_sec = 1000;
  config.oversubscription = 2.0;
  sim::FlowNetwork net(&simulation, config);
  Pcg32 rng(17);
  double total = 0;
  int completed = 0;
  const int kFlows = 60;
  for (int i = 0; i < kFlows; ++i) {
    int src = rng.NextBounded(6);
    int dst = rng.NextBounded(6);
    double bytes = 1 + rng.NextBounded(50000);
    total += bytes;
    simulation.ScheduleAt(rng.NextDouble() * 10, [&net, &completed, src, dst,
                                                  bytes] {
      net.StartFlow(src, dst, bytes, [&completed] { ++completed; });
    });
  }
  simulation.Run();
  EXPECT_EQ(completed, kFlows);
  EXPECT_NEAR(net.bytes_delivered(), total, total * 1e-6 + kFlows);
}

TEST(FlowNetPropertyTest, MoreBytesNeverFinishEarlier) {
  auto time_for = [](double bytes) {
    sim::Simulation simulation;
    sim::FlowNetwork net(&simulation, sim::FlowNetConfig{});
    double done = 0;
    net.StartFlow(0, 1, bytes, [&] { done = simulation.Now(); });
    simulation.Run();
    return done;
  };
  double prev = -1;
  for (double bytes : {1e3, 1e5, 1e7, 1e9}) {
    double t = time_for(bytes);
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST(TimelineTest, RenderActivityCountsPhases) {
  const std::vector<mr::TaskEvent> events = {
      {mr::Phase::kMap, 0, 1, 0.0, 10.0},
      {mr::Phase::kMap, 1, 2, 5.0, 15.0},
      {mr::Phase::kReduce, 0, 1, 15.0, 20.0},
  };
  EXPECT_EQ(mr::ActiveAt(events, mr::Phase::kMap, 7.0), 2);
  EXPECT_EQ(mr::ActiveAt(events, mr::Phase::kMap, 12.0), 1);
  EXPECT_EQ(mr::ActiveAt(events, mr::Phase::kReduce, 16.0), 1);
  EXPECT_EQ(mr::ActiveAt(events, mr::Phase::kReduce, 7.0), 0);
  EXPECT_EQ(mr::RenderActivity(events, 5.0),
            "time\tMap\tReduce\n"
            "0.0\t1\t0\n"
            "5.0\t2\t0\n"
            "10.0\t1\t0\n"
            "15.0\t0\t1\n"
            "20.0\t0\t0\n");
}

TEST(ScratchDirTest, CreatesAndCleansUp) {
  std::string path;
  {
    core::ScratchDir scratch;
    path = scratch.path();
    EXPECT_TRUE(std::filesystem::exists(path));
    std::ofstream(scratch.FilePath("f")) << "data";
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

}  // namespace
}  // namespace bmr
