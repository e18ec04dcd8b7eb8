// End-to-end tests of the execution engine: with-barrier vs
// barrier-less equivalence, counters, timelines, fault tolerance.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "apps/sort.h"
#include "apps/wordcount.h"
#include "common/mutex.h"
#include "test_util.h"
#include "workload/generators.h"

namespace bmr {
namespace {

using mr::ClusterContext;
using mr::JobResult;
using mr::JobRunner;
using mr::Record;
using testutil::MakeTestCluster;

/// Ground truth: word counts computed directly from the generated files.
std::map<std::string, int64_t> DirectWordCount(
    ClusterContext* cluster, const std::vector<std::string>& files) {
  std::map<std::string, int64_t> counts;
  for (const auto& file : files) {
    auto contents = cluster->client(0)->ReadAll(file);
    EXPECT_TRUE(contents.ok()) << contents.status();
    std::string_view text = *contents;
    size_t pos = 0;
    while (pos < text.size()) {
      size_t end = text.find_first_of(" \n", pos);
      if (end == std::string_view::npos) end = text.size();
      if (end > pos) counts[std::string(text.substr(pos, end - pos))]++;
      pos = end + 1;
    }
  }
  return counts;
}

class EngineWordCountTest : public ::testing::TestWithParam<bool> {};

TEST_P(EngineWordCountTest, MatchesDirectComputation) {
  bool barrierless = GetParam();
  auto cluster = MakeTestCluster(4);
  workload::TextGenOptions gen;
  gen.total_bytes = 300 << 10;  // several blocks => several map tasks
  gen.num_files = 3;
  gen.vocabulary = 500;
  gen.seed = 42;
  auto files = workload::GenerateZipfText(cluster.get(), "/wc/in", gen);
  ASSERT_TRUE(files.ok()) << files.status();

  apps::AppOptions options;
  options.input_files = *files;
  options.output_path = barrierless ? "/wc/out-bl" : "/wc/out-b";
  options.num_reducers = 3;
  options.barrierless = barrierless;
  JobRunner runner(cluster.get());
  JobResult result = runner.Run(apps::MakeWordCountJob(options));
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(result.output_files.size(), 3u);

  auto output = JobRunner::ReadAllOutput(cluster->client(0), result);
  ASSERT_TRUE(output.ok()) << output.status();

  std::map<std::string, int64_t> expected =
      DirectWordCount(cluster.get(), *files);
  std::map<std::string, int64_t> actual;
  for (const Record& r : *output) {
    ASSERT_EQ(actual.count(r.key), 0u) << "duplicate key " << r.key;
    actual[r.key] = apps::DecodeCount(Slice(r.value));
  }
  EXPECT_EQ(actual, expected);

  // Counter sanity: map output records == reduce input records (no
  // combiner), and some bytes were shuffled.
  EXPECT_EQ(result.counters.Get(mr::kCtrMapOutputRecords),
            result.counters.Get(mr::kCtrReduceInputRecords));
  EXPECT_GT(result.counters.Get(mr::kCtrShuffleBytes), 0u);
  EXPECT_GT(result.counters.Get(mr::kCtrMapTasksLaunched), 1u);
}

INSTANTIATE_TEST_SUITE_P(Modes, EngineWordCountTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "Barrierless" : "Barrier";
                         });

TEST(EngineTest, BarrierAndBarrierlessProduceIdenticalWordCounts) {
  auto cluster = MakeTestCluster(4);
  workload::TextGenOptions gen;
  gen.total_bytes = 200 << 10;
  gen.vocabulary = 300;
  gen.seed = 7;
  auto files = workload::GenerateZipfText(cluster.get(), "/in", gen);
  ASSERT_TRUE(files.ok());

  JobRunner runner(cluster.get());
  apps::AppOptions base;
  base.input_files = *files;
  base.num_reducers = 4;

  apps::AppOptions with = base;
  with.output_path = "/out-barrier";
  JobResult barrier = runner.Run(apps::MakeWordCountJob(with));
  ASSERT_TRUE(barrier.ok()) << barrier.status;

  apps::AppOptions without = base;
  without.output_path = "/out-barrierless";
  without.barrierless = true;
  JobResult barrierless = runner.Run(apps::MakeWordCountJob(without));
  ASSERT_TRUE(barrierless.ok()) << barrierless.status;

  auto out_a = JobRunner::ReadAllOutput(cluster->client(0), barrier);
  auto out_b = JobRunner::ReadAllOutput(cluster->client(0), barrierless);
  ASSERT_TRUE(out_a.ok());
  ASSERT_TRUE(out_b.ok());
  EXPECT_EQ(testutil::AsMultiset(*out_a), testutil::AsMultiset(*out_b));
}

TEST(EngineTest, CombinerReducesShuffleVolumePreservingResult) {
  auto cluster = MakeTestCluster(3);
  workload::TextGenOptions gen;
  gen.total_bytes = 150 << 10;
  gen.vocabulary = 100;  // heavy duplication => combiner bites
  gen.seed = 3;
  auto files = workload::GenerateZipfText(cluster.get(), "/in", gen);
  ASSERT_TRUE(files.ok());

  JobRunner runner(cluster.get());
  apps::AppOptions plain;
  plain.input_files = *files;
  plain.output_path = "/out-plain";
  plain.num_reducers = 2;
  JobResult without = runner.Run(apps::MakeWordCountJob(plain));
  ASSERT_TRUE(without.ok());

  apps::AppOptions combined = plain;
  combined.output_path = "/out-combined";
  combined.extra.SetBool("wordcount.use_combiner", true);
  JobResult with = runner.Run(apps::MakeWordCountJob(combined));
  ASSERT_TRUE(with.ok());

  EXPECT_LT(with.counters.Get(mr::kCtrShuffleBytes),
            without.counters.Get(mr::kCtrShuffleBytes));
  EXPECT_GT(with.counters.Get(mr::kCtrCombineInputRecords),
            with.counters.Get(mr::kCtrCombineOutputRecords));

  auto out_a = JobRunner::ReadAllOutput(cluster->client(0), without);
  auto out_b = JobRunner::ReadAllOutput(cluster->client(0), with);
  ASSERT_TRUE(out_a.ok());
  ASSERT_TRUE(out_b.ok());
  EXPECT_EQ(testutil::AsMultiset(*out_a), testutil::AsMultiset(*out_b));
}

TEST(EngineTest, SortProducesGloballyOrderedOutput) {
  auto cluster = MakeTestCluster(4);
  workload::IntGenOptions gen;
  gen.count = 20000;
  gen.seed = 11;
  auto files = workload::GenerateRandomInts(cluster.get(), "/sort/in", gen);
  ASSERT_TRUE(files.ok());

  for (bool barrierless : {false, true}) {
    apps::AppOptions options;
    options.input_files = *files;
    options.output_path = barrierless ? "/sort/out-bl" : "/sort/out-b";
    options.num_reducers = 4;
    options.barrierless = barrierless;
    JobRunner runner(cluster.get());
    JobResult result = runner.Run(apps::MakeSortJob(options));
    ASSERT_TRUE(result.ok()) << result.status;

    // Part files concatenated in partition order must be globally
    // sorted (range partitioner) and contain every input value.
    auto output = JobRunner::ReadAllOutput(cluster->client(0), result);
    ASSERT_TRUE(output.ok());
    EXPECT_EQ(output->size(), 20000u);
    for (size_t i = 1; i < output->size(); ++i) {
      EXPECT_LE((*output)[i - 1].key, (*output)[i].key)
          << "output out of order at " << i << " (barrierless="
          << barrierless << ")";
    }
  }
}

/// Makes the barrier-less overlap a certainty rather than a matter of
/// thread scheduling: one map attempt is held open in Cleanup until a
/// reducer has folded its first record.
struct OverlapGate {
  Mutex mu;
  CondVar cv;
  bool held BMR_GUARDED_BY(mu) = false;    // a map attempt took the hold
  bool folded BMR_GUARDED_BY(mu) = false;  // some reducer ran Update
};

class HeldMapper final : public mr::Mapper {
 public:
  HeldMapper(std::unique_ptr<mr::Mapper> inner, OverlapGate* gate)
      : inner_(std::move(inner)), gate_(gate) {}
  void Setup(mr::MapContext* ctx) override { inner_->Setup(ctx); }
  void Map(Slice key, Slice value, mr::MapContext* ctx) override {
    inner_->Map(key, value, ctx);
  }
  void Cleanup(mr::MapContext* ctx) override {
    inner_->Cleanup(ctx);
    MutexLock lock(gate_->mu);
    if (gate_->held) return;
    gate_->held = true;
    while (!gate_->folded) {
      // Bounded, so a reducer that never starts fails the overlap
      // assertion instead of hanging the suite.
      if (!gate_->cv.WaitFor(gate_->mu, 30000)) break;
    }
  }

 private:
  std::unique_ptr<mr::Mapper> inner_;
  OverlapGate* gate_;
};

class SignallingReducer final : public core::IncrementalReducer {
 public:
  SignallingReducer(std::unique_ptr<core::IncrementalReducer> inner,
                    OverlapGate* gate)
      : inner_(std::move(inner)), gate_(gate) {}
  void Setup(const Config& config) override { inner_->Setup(config); }
  bool UsesStore() const override { return inner_->UsesStore(); }
  std::string InitPartial(Slice key) override {
    return inner_->InitPartial(key);
  }
  void Update(Slice key, Slice value, std::string* partial,
              mr::ReduceEmitter* out) override {
    inner_->Update(key, value, partial, out);
    if (signalled_) return;
    signalled_ = true;
    MutexLock lock(gate_->mu);
    gate_->folded = true;
    gate_->cv.NotifyAll();
  }
  std::string MergePartials(Slice key, Slice a, Slice b) override {
    return inner_->MergePartials(key, a, b);
  }
  void Finish(Slice key, Slice partial, mr::ReduceEmitter* out) override {
    inner_->Finish(key, partial, out);
  }
  void Flush(mr::ReduceEmitter* out) override { inner_->Flush(out); }

 private:
  std::unique_ptr<core::IncrementalReducer> inner_;
  OverlapGate* gate_;
  bool signalled_ = false;
};

TEST(EngineTest, TimelineShowsBarrierGapAndPipelinedOverlap) {
  auto cluster = MakeTestCluster(4, /*block_bytes=*/32 << 10);
  workload::TextGenOptions gen;
  gen.total_bytes = 256 << 10;  // 8 blocks over 8 map slots
  gen.vocabulary = 2000;
  auto files = workload::GenerateZipfText(cluster.get(), "/in", gen);
  ASSERT_TRUE(files.ok());

  JobRunner runner(cluster.get());
  apps::AppOptions options;
  options.input_files = *files;
  options.num_reducers = 2;

  options.output_path = "/out-b";
  JobResult barrier = runner.Run(apps::MakeWordCountJob(options));
  ASSERT_TRUE(barrier.ok());

  options.output_path = "/out-bl";
  options.barrierless = true;
  mr::JobSpec spec = apps::MakeWordCountJob(options);
  OverlapGate gate;
  spec.mapper = [make = spec.mapper, &gate] {
    return std::make_unique<HeldMapper>(make(), &gate);
  };
  spec.incremental = [make = spec.incremental, &gate] {
    return std::make_unique<SignallingReducer>(make(), &gate);
  };
  JobResult barrierless = runner.Run(std::move(spec));
  ASSERT_TRUE(barrierless.ok());

  // With barrier: reduce phases must start after the LAST map ends.
  double last_map_end = 0;
  for (const auto& e : barrier.events) {
    if (e.phase == mr::Phase::kMap) last_map_end = std::max(last_map_end, e.end);
  }
  for (const auto& e : barrier.events) {
    if (e.phase == mr::Phase::kReduce) {
      EXPECT_GE(e.start, last_map_end - 1e-6);
    }
  }

  // Barrier-less: the combined shuffle+reduce phase starts before the
  // last map finishes (pipelining).
  double bl_last_map_end = 0;
  for (const auto& e : barrierless.events) {
    if (e.phase == mr::Phase::kMap) {
      bl_last_map_end = std::max(bl_last_map_end, e.end);
    }
  }
  bool any_overlap = false;
  for (const auto& e : barrierless.events) {
    if (e.phase == mr::Phase::kShuffleReduce && e.start < bl_last_map_end) {
      any_overlap = true;
    }
  }
  EXPECT_TRUE(any_overlap);
}

TEST(EngineTest, MapReexecutionSurvivesNodeLoss) {
  auto cluster = MakeTestCluster(4);
  workload::TextGenOptions gen;
  gen.total_bytes = 100 << 10;
  gen.vocabulary = 200;
  auto files = workload::GenerateZipfText(cluster.get(), "/in", gen);
  ASSERT_TRUE(files.ok());

  // Run once to learn the answer.
  JobRunner runner(cluster.get());
  apps::AppOptions options;
  options.input_files = *files;
  options.output_path = "/out-ref";
  options.num_reducers = 2;
  JobResult reference = runner.Run(apps::MakeWordCountJob(options));
  ASSERT_TRUE(reference.ok());
  auto expected = JobRunner::ReadAllOutput(cluster->client(0), reference);
  ASSERT_TRUE(expected.ok());

  // Kill a slave *after* input generation (its shuffle service and DFS
  // blocks vanish), then run again: map tasks on that node must re-run
  // elsewhere and reads must fail over to replicas.
  cluster->KillNode(2);
  options.output_path = "/out-postkill";
  JobResult result = runner.Run(apps::MakeWordCountJob(options));
  ASSERT_TRUE(result.ok()) << result.status;
  auto actual = JobRunner::ReadAllOutput(cluster->client(0), result);
  ASSERT_TRUE(actual.ok());
  EXPECT_EQ(testutil::AsMap(*expected), testutil::AsMap(*actual));
}

TEST(EngineTest, InvalidSpecsAreRejected) {
  auto cluster = MakeTestCluster(2);
  JobRunner runner(cluster.get());

  mr::JobSpec empty;
  EXPECT_EQ(runner.Run(empty).status.code(), StatusCode::kInvalidArgument);

  apps::AppOptions options;
  options.input_files = {"/does/not/exist"};
  mr::JobSpec spec = apps::MakeWordCountJob(options);
  EXPECT_FALSE(runner.Run(spec).ok());

  options.num_reducers = 0;
  spec = apps::MakeWordCountJob(options);
  EXPECT_EQ(runner.Run(spec).status.code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, ReducerWavesWhenReducersExceedSlots) {
  // 2 slaves x 2 reduce slots = 4 slots; 6 reducers => two waves.
  auto cluster = MakeTestCluster(2, 64 << 10, 2, 2);
  workload::TextGenOptions gen;
  gen.total_bytes = 100 << 10;
  gen.vocabulary = 400;
  auto files = workload::GenerateZipfText(cluster.get(), "/in", gen);
  ASSERT_TRUE(files.ok());

  apps::AppOptions options;
  options.input_files = *files;
  options.output_path = "/out";
  options.num_reducers = 6;
  options.barrierless = true;
  JobRunner runner(cluster.get());
  JobResult result = runner.Run(apps::MakeWordCountJob(options));
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(result.output_files.size(), 6u);
}

}  // namespace
}  // namespace bmr
