// Tests for the paper-scale simulator: determinism, mechanics, and the
// headline result *shapes* (who wins, roughly by how much, where the
// crossovers fall) that EXPERIMENTS.md relies on.
#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "simmr/calibrate.h"
#include "simmr/hadoop_sim.h"
#include "simmr/profiles.h"

namespace bmr::simmr {
namespace {

using cluster::PaperCluster;

double Improvement(SimJob job) {
  job.barrierless = false;
  double with = SimulateJob(PaperCluster(), job).completion_seconds;
  job.barrierless = true;
  double without = SimulateJob(PaperCluster(), job).completion_seconds;
  return (with - without) / with * 100.0;
}

TEST(SimMechanicsTest, DeterministicInSeed) {
  SimJob job = WordCountSim(4.0);
  SimResult a = SimulateJob(PaperCluster(), job);
  SimResult b = SimulateJob(PaperCluster(), job);
  EXPECT_DOUBLE_EQ(a.completion_seconds, b.completion_seconds);
  // Same seed ⇒ the identical event timeline, element for element —
  // catches any accidental wall-clock or unseeded-RNG dependence.
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].phase, b.events[i].phase) << "event " << i;
    EXPECT_EQ(a.events[i].task_id, b.events[i].task_id) << "event " << i;
    EXPECT_EQ(a.events[i].node, b.events[i].node) << "event " << i;
    EXPECT_DOUBLE_EQ(a.events[i].start, b.events[i].start) << "event " << i;
    EXPECT_DOUBLE_EQ(a.events[i].end, b.events[i].end) << "event " << i;
  }

  job.seed = 99;
  SimResult c = SimulateJob(PaperCluster(), job);
  EXPECT_NE(a.completion_seconds, c.completion_seconds);
}

TEST(SimMechanicsTest, MapWavesMatchSlotCapacity) {
  // 8 GB = 128 map tasks over 60 slots: at most 60 concurrently.
  SimJob job = WordCountSim(8.0);
  SimResult result = SimulateJob(PaperCluster(), job);
  int max_active = 0;
  for (const auto& e : result.events) {
    if (e.phase != mr::Phase::kMap) continue;
    int active = mr::ActiveAt(result.events, mr::Phase::kMap,
                              (e.start + e.end) / 2);
    max_active = std::max(max_active, active);
  }
  EXPECT_LE(max_active, PaperCluster().total_map_slots());
  EXPECT_GT(max_active, PaperCluster().total_map_slots() / 2);
}

TEST(SimMechanicsTest, BarrierDelaysReduceUntilLastMap) {
  SimJob job = WordCountSim(4.0);
  job.barrierless = false;
  SimResult result = SimulateJob(PaperCluster(), job);
  for (const auto& e : result.events) {
    if (e.phase == mr::Phase::kReduce) {
      EXPECT_GE(e.start, result.last_map_done - 1e-9);
    }
  }
}

TEST(SimMechanicsTest, BarrierlessFinishesShortlyAfterLastMap) {
  SimJob job = WordCountSim(4.0);
  job.barrierless = true;
  SimResult result = SimulateJob(PaperCluster(), job);
  // The Fig. 4 observation: completion within a small tail after the
  // final map (10s on the paper's 3 GB run; allow a proportional tail).
  EXPECT_LT(result.completion_seconds,
            result.last_map_done + 0.2 * result.last_map_done);
  EXPECT_GT(result.completion_seconds, result.last_map_done);
}

TEST(SimMechanicsTest, MapperSlackGrowsWithInput) {
  SimJob small = WordCountSim(2.0);
  SimJob large = WordCountSim(16.0);
  small.barrierless = false;
  large.barrierless = false;
  EXPECT_GT(SimulateJob(PaperCluster(), large).mapper_slack,
            SimulateJob(PaperCluster(), small).mapper_slack);
}

TEST(SimMechanicsTest, HeterogeneityStretchesCompletion) {
  cluster::ClusterSpec uniform = PaperCluster();
  cluster::ClusterSpec spread = PaperCluster();
  cluster::ApplyHeterogeneity(&spread, 0.5, 3);
  SimJob job = WordCountSim(8.0);
  EXPECT_GT(SimulateJob(spread, job).completion_seconds,
            SimulateJob(uniform, job).completion_seconds);
}

// ---- Result shapes (the reproduction contract) --------------------------

TEST(PaperShapeTest, WordCountImprovesTenToTwentyFivePercent) {
  for (double gb : {4.0, 8.0, 16.0}) {
    double improvement = Improvement(WordCountSim(gb));
    EXPECT_GT(improvement, 8.0) << gb << " GB";
    EXPECT_LT(improvement, 30.0) << gb << " GB";
  }
}

TEST(PaperShapeTest, SortSlightlyWorseWithoutBarrier) {
  // §6.1.1: slowdowns up to 9%, shrinking at 16 GB.
  for (double gb : {4.0, 8.0, 16.0}) {
    double improvement = Improvement(SortSim(gb));
    EXPECT_LT(improvement, 2.0) << gb << " GB";
    EXPECT_GT(improvement, -15.0) << gb << " GB";
  }
}

TEST(PaperShapeTest, KnnAndLastFmImproveTeens) {
  EXPECT_GT(Improvement(KnnSim(8.0)), 10.0);
  EXPECT_LT(Improvement(KnnSim(8.0)), 30.0);
  EXPECT_GT(Improvement(LastFmSim(8.0)), 12.0);
  EXPECT_LT(Improvement(LastFmSim(8.0)), 35.0);
}

TEST(PaperShapeTest, GeneticImprovesRoughlyFifteenPercent) {
  double improvement = Improvement(GeneticSim(100));
  EXPECT_GT(improvement, 8.0);
  EXPECT_LT(improvement, 25.0);
}

TEST(PaperShapeTest, BlackScholesImprovesMostAndGrowsWithMappers) {
  double at_25 = Improvement(BlackScholesSim(25));
  double at_200 = Improvement(BlackScholesSim(200));
  EXPECT_GT(at_25, 35.0);
  EXPECT_GT(at_200, at_25);  // benefit grows with input
  EXPECT_GT(at_200, 60.0);
  EXPECT_LT(at_200, 90.0);
}

TEST(PaperShapeTest, BlackScholesBeatsEveryOtherClass) {
  double bs = Improvement(BlackScholesSim(100));
  EXPECT_GT(bs, Improvement(WordCountSim(8.0)));
  EXPECT_GT(bs, Improvement(KnnSim(8.0)));
  EXPECT_GT(bs, Improvement(LastFmSim(8.0)));
  EXPECT_GT(bs, Improvement(GeneticSim(100)));
}

TEST(PaperShapeTest, Figure8ReducerSweepShape) {
  // Improvement shrinks as reducers approach the 60 slots, then rises
  // again at 70 when a second wave appears; completion time jumps.
  auto improvement_at = [](int reducers) {
    return Improvement(GeneticSim(100, reducers));
  };
  double at_30 = improvement_at(30);
  double at_60 = improvement_at(60);
  double at_70 = improvement_at(70);
  EXPECT_GT(at_30, at_60);
  EXPECT_GT(at_70, at_60);

  SimJob job = GeneticSim(100, 60);
  job.barrierless = false;
  double t60 = SimulateJob(PaperCluster(), job).completion_seconds;
  job = GeneticSim(100, 70);
  job.barrierless = false;
  double t70 = SimulateJob(PaperCluster(), job).completion_seconds;
  EXPECT_GT(t70, t60);
}

TEST(PaperShapeTest, Figure5InMemoryOomsAndSpillMergeCompletes) {
  SimJob job = WordCountSim(16.0, 10);
  job.barrierless = true;
  job.store.type = core::StoreType::kInMemory;
  job.store.heap_limit_bytes = 1400ull << 20;
  SimResult in_memory = SimulateJob(PaperCluster(), job);
  EXPECT_TRUE(in_memory.failed_oom);
  EXPECT_GT(in_memory.failure_time, 0);

  job.store.type = core::StoreType::kSpillMerge;
  job.store.heap_limit_bytes = 0;
  job.store.spill_threshold_bytes = 240ull << 20;
  SimResult spill = SimulateJob(PaperCluster(), job);
  EXPECT_TRUE(spill.ok());
  // Memory stays bounded by the threshold (modulo one entry).
  for (const auto& sample : spill.memory_samples) {
    EXPECT_LE(sample.bytes, 245.0 * (1 << 20));
  }
}

TEST(PaperShapeTest, Figure9SchemeOrdering) {
  // At 40 reducers on 16 GB: in-memory <= spill-merge < barrier << KV.
  SimJob base = WordCountSim(16.0, 40);

  SimJob barrier = base;
  barrier.barrierless = false;
  double t_barrier = SimulateJob(PaperCluster(), barrier).completion_seconds;

  SimJob in_memory = base;
  in_memory.barrierless = true;
  in_memory.store.heap_limit_bytes = 1400ull << 20;
  SimResult r_mem = SimulateJob(PaperCluster(), in_memory);
  ASSERT_TRUE(r_mem.ok());

  SimJob spill = base;
  spill.barrierless = true;
  spill.store.type = core::StoreType::kSpillMerge;
  double t_spill = SimulateJob(PaperCluster(), spill).completion_seconds;

  SimJob kv = base;
  kv.barrierless = true;
  kv.store.type = core::StoreType::kKvStore;
  double t_kv = SimulateJob(PaperCluster(), kv).completion_seconds;

  EXPECT_LE(r_mem.completion_seconds, t_spill + 1.0);
  EXPECT_LT(t_spill, t_barrier);
  EXPECT_GT(t_kv, 3 * t_barrier);
}

TEST(PaperShapeTest, Figure9InMemoryOomsOnlyAtLowReducerCounts) {
  auto run = [](int reducers) {
    SimJob job = WordCountSim(16.0, reducers);
    job.barrierless = true;
    job.store.heap_limit_bytes = 1400ull << 20;
    return SimulateJob(PaperCluster(), job);
  };
  EXPECT_TRUE(run(10).failed_oom);   // few reducers: partials overflow
  EXPECT_FALSE(run(40).failed_oom);  // spread thin enough to fit
}

TEST(SimMechanicsTest, PullDispatchAbsorbsHeterogeneity) {
  // A pull-based scheduler gives slow nodes fewer tasks; makespan must
  // grow far less than the slowest node's slowdown factor.
  cluster::ClusterSpec uniform = PaperCluster();
  cluster::ClusterSpec skewed = PaperCluster();
  skewed.nodes[3].speed = 0.5;
  SimJob job = WordCountSim(8.0);
  job.barrierless = false;
  double t_uniform = SimulateJob(uniform, job).completion_seconds;
  double t_skewed = SimulateJob(skewed, job).completion_seconds;
  EXPECT_GT(t_skewed, t_uniform);
  EXPECT_LT(t_skewed, t_uniform * 1.6);  // not 2x: other nodes took the load
}

TEST(SimMechanicsTest, SpeculationClipsFaultyNodeTail) {
  cluster::ClusterSpec cluster = PaperCluster();
  cluster.nodes[5].speed = 0.2;
  SimJob job = WordCountSim(8.0);
  job.barrierless = false;
  double without = SimulateJob(cluster, job).completion_seconds;
  job.speculative_execution = true;
  SimResult with = SimulateJob(cluster, job);
  EXPECT_LT(with.completion_seconds, without * 0.8);
  EXPECT_GT(with.backups_launched, 0);
  EXPECT_GT(with.backups_won, 0);
}

TEST(SimMechanicsTest, SpeculationHarmlessOnHealthyCluster) {
  SimJob job = WordCountSim(8.0);
  job.barrierless = false;
  double base = SimulateJob(PaperCluster(), job).completion_seconds;
  job.speculative_execution = true;
  double spec = SimulateJob(PaperCluster(), job).completion_seconds;
  EXPECT_NEAR(spec, base, base * 0.05);
}

TEST(SimMechanicsTest, CombinerShrinksShuffleAndCompletion) {
  SimJob job = WordCountSim(8.0);
  job.barrierless = false;
  SimResult plain = SimulateJob(PaperCluster(), job);
  job.combiner_reduction = 0.8;
  SimResult combined = SimulateJob(PaperCluster(), job);
  EXPECT_LT(combined.shuffle_bytes, plain.shuffle_bytes * 0.3);
  EXPECT_LT(combined.completion_seconds, plain.completion_seconds);
}

TEST(CalibrationTest, SortFoldSlowerThanMergePerRecord) {
  // The Fig. 6(a) mechanism, measured on the real engine.
  MicroCosts sort = MeasureSortCosts(50000, 8, 3);
  EXPECT_GT(sort.incremental_secs_per_record,
            sort.merge_secs_per_record + sort.grouped_reduce_secs_per_record);
  EXPECT_GT(sort.merge_secs_per_record, 0);
}

TEST(CalibrationTest, AggregationRatioBelowSortRatio) {
  MicroCosts agg = MeasureAggregationCosts(50000, 2000, 8, 3);
  MicroCosts sort = MeasureSortCosts(50000, 8, 3);
  double agg_ratio =
      agg.incremental_secs_per_record /
      (agg.merge_secs_per_record + agg.grouped_reduce_secs_per_record);
  double sort_ratio =
      sort.incremental_secs_per_record /
      (sort.merge_secs_per_record + sort.grouped_reduce_secs_per_record);
  EXPECT_LT(agg_ratio, sort_ratio);
}

}  // namespace
}  // namespace bmr::simmr
