// Figure 4: system-wide progress of WordCount on a 3 GB dataset, with
// and without the barrier — the number of tasks active in each phase
// over time.  The with-barrier run shows the gap between the last Map
// and the first Reduce; the barrier-less run shows Shuffle+Reduce
// starting as soon as the first mappers complete and finishing shortly
// after the last one.
#include <cstdio>

#include "mr/timeline.h"
#include "simmr/hadoop_sim.h"
#include "simmr/profiles.h"

using bmr::cluster::PaperCluster;
using bmr::mr::ActiveAt;
using bmr::mr::Phase;
using bmr::simmr::SimJob;
using bmr::simmr::SimResult;
using bmr::simmr::SimulateJob;

namespace {

void PrintActivity(const SimResult& result, bool barrierless) {
  const auto& events = result.events;
  double horizon = result.completion_seconds;
  std::printf("%s\n", barrierless
                          ? "time\tMap\tShuffle+Reduce\tOutput"
                          : "time\tMap\tShuffle\tSort\tReduce\tOutput");
  double step = horizon / 40;
  for (double t = 0; t <= horizon + step / 2; t += step) {
    if (barrierless) {
      std::printf("%.0f\t%d\t%d\t%d\n", t,
                  ActiveAt(events, Phase::kMap, t),
                  ActiveAt(events, Phase::kShuffleReduce, t),
                  ActiveAt(events, Phase::kOutput, t));
    } else {
      std::printf("%.0f\t%d\t%d\t%d\t%d\t%d\n", t,
                  ActiveAt(events, Phase::kMap, t),
                  ActiveAt(events, Phase::kShuffle, t),
                  ActiveAt(events, Phase::kSortMerge, t),
                  ActiveAt(events, Phase::kReduce, t),
                  ActiveAt(events, Phase::kOutput, t));
    }
  }
}

}  // namespace

int main() {
  std::printf("== Figure 4: WordCount progress on 3 GB, 16-node cluster ==\n");
  SimJob job = bmr::simmr::WordCountSim(3.0);

  job.barrierless = false;
  SimResult with = SimulateJob(PaperCluster(), job);
  std::printf("\n(a) With barrier: job completes at %.0fs "
              "(last map %.0fs, mapper slack %.0fs)\n",
              with.completion_seconds, with.last_map_done, with.mapper_slack);
  PrintActivity(with, false);

  job.barrierless = true;
  SimResult without = SimulateJob(PaperCluster(), job);
  std::printf("\n(b) Without barrier: job completes at %.0fs "
              "(last map %.0fs — reduce work rides the mapper slack)\n",
              without.completion_seconds, without.last_map_done);
  PrintActivity(without, true);

  double gain = (with.completion_seconds - without.completion_seconds) /
                with.completion_seconds * 100;
  std::printf("\nImprovement in job completion time: %.0f%% "
              "(the paper reports 30%% for this experiment)\n", gain);
  return 0;
}
