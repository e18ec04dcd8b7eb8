// Real-engine demonstration: WordCount with and without the barrier on
// the in-process cluster, real data end to end.  This host has a single
// core, so barrier-less pipelining cannot buy wall-clock time here
// (there is no idle CPU to overlap into); the run demonstrates
// correctness, the counter plumbing, and the structural difference —
// the paper-scale timing claims are regenerated by the simulator
// benches.
#include <cstdio>

#include "apps/wordcount.h"
#include "common/table.h"
#include "mr/engine.h"
#include "mr/metrics.h"
#include "mr/timeline.h"
#include "simmr/hadoop_sim.h"
#include "simmr/profiles.h"
#include "workload/generators.h"

using bmr::TextTable;
using bmr::apps::AppOptions;
using bmr::mr::ClusterContext;
using bmr::mr::JobResult;
using bmr::mr::JobRunner;

int main() {
  std::printf("== Real engine: WordCount on the in-process cluster ==\n\n");
  auto spec = bmr::cluster::SmallCluster(4, 2, 2);
  spec.dfs_block_bytes = 512 << 10;
  auto cluster = ClusterContext::Create(std::move(spec));

  bmr::workload::TextGenOptions gen;
  gen.total_bytes = 8 << 20;
  gen.num_files = 4;
  gen.vocabulary = 50000;
  gen.seed = 1;
  auto files = bmr::workload::GenerateZipfText(cluster.get(), "/in", gen);
  if (!files.ok()) {
    std::printf("generation failed: %s\n", files.status().ToString().c_str());
    return 1;
  }

  TextTable table({"mode", "store", "wall_s", "map_records", "shuffle_MB",
                   "reduce_records", "spills", "output_keys"});
  JobRunner runner(cluster.get());
  int run = 0;
  auto run_one = [&](bool barrierless, bmr::core::StoreType type,
                     uint64_t spill_threshold) {
    AppOptions options;
    options.input_files = *files;
    options.output_path = "/out-" + std::to_string(run++);
    options.num_reducers = 4;
    options.barrierless = barrierless;
    options.store.type = type;
    options.store.spill_threshold_bytes = spill_threshold;
    JobResult result = runner.Run(bmr::apps::MakeWordCountJob(options));
    if (!result.ok()) {
      std::printf("run failed: %s\n", result.status.ToString().c_str());
      return;
    }
    table.AddRow(
        {barrierless ? "barrier-less" : "with-barrier",
         barrierless ? bmr::core::StoreTypeName(type) : "-",
         TextTable::Num(result.elapsed_seconds, 2),
         TextTable::Int(result.counters.Get(bmr::mr::kCtrMapInputRecords)),
         TextTable::Num(
             result.counters.Get(bmr::mr::kCtrShuffleBytes) / 1048576.0, 1),
         TextTable::Int(result.counters.Get(bmr::mr::kCtrReduceInputRecords)),
         TextTable::Int(result.counters.Get(bmr::mr::kCtrSpills)),
         TextTable::Int(
             result.counters.Get(bmr::mr::kCtrReduceOutputRecords))});
  };

  run_one(false, bmr::core::StoreType::kInMemory, 0);
  run_one(true, bmr::core::StoreType::kInMemory, 0);
  run_one(true, bmr::core::StoreType::kSpillMerge, 64 << 10);
  run_one(true, bmr::core::StoreType::kKvStore, 0);
  table.Print();

  // Real-engine task timeline (the wall-clock analogue of Fig. 4).
  {
    AppOptions options;
    options.input_files = *files;
    options.output_path = "/out-timeline";
    options.num_reducers = 4;
    options.barrierless = true;
    JobResult result = runner.Run(bmr::apps::MakeWordCountJob(options));
    if (result.ok()) {
      std::printf("\nbarrier-less task activity over wall time "
                  "(tasks active per phase):\n%s",
                  bmr::mr::RenderActivity(result.events,
                                          result.elapsed_seconds / 12)
                      .c_str());
    }
  }
  // Real and simulated runs report through one schema (mr::JobMetrics):
  // the engine snapshots its MetricsRegistry, the simulator projects
  // its SimResult, and both print through the same formatter.
  {
    AppOptions options;
    options.input_files = *files;
    options.output_path = "/out-schema";
    options.num_reducers = 4;
    options.barrierless = true;
    JobResult real = runner.Run(bmr::apps::MakeWordCountJob(options));
    bmr::simmr::SimJob sim_job = bmr::simmr::WordCountSim(0.008, 4);
    sim_job.barrierless = true;
    bmr::simmr::SimResult sim =
        bmr::simmr::SimulateJob(bmr::cluster::SmallCluster(4, 2, 2), sim_job);
    std::printf("\n== One reporting schema, two execution vehicles ==\n");
    if (real.ok()) {
      std::printf("%s", bmr::mr::FormatJobMetrics("real", real)
                            .c_str());
    }
    if (sim.ok()) {
      std::printf("%s",
                  bmr::mr::FormatJobMetrics("simulated",
                                            bmr::simmr::ToJobMetrics(sim))
                      .c_str());
    }
  }
  std::printf(
      "\nAll four configurations produce identical word counts (asserted\n"
      "by the test suite); spills show the overflow machinery working.\n");
  return 0;
}
