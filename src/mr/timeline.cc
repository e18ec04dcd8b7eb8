#include "mr/timeline.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace bmr::mr {

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kMap: return "Map";
    case Phase::kShuffle: return "Shuffle";
    case Phase::kSortMerge: return "Sort";
    case Phase::kReduce: return "Reduce";
    case Phase::kShuffleReduce: return "Shuffle+Reduce";
    case Phase::kOutput: return "Output";
    case Phase::kFault: return "Fault";
    case Phase::kRecovery: return "Recovery";
  }
  return "?";
}

int ActiveAt(const std::vector<TaskEvent>& events, Phase phase, double t) {
  int n = 0;
  for (const auto& e : events) {
    if (e.phase == phase && e.start <= t && t < e.end) ++n;
  }
  return n;
}

std::string RenderActivity(const std::vector<TaskEvent>& events, double step) {
  constexpr int kNumPhases = 8;
  double horizon = 0;
  bool phases_present[kNumPhases] = {};
  for (const auto& e : events) {
    horizon = std::max(horizon, e.end);
    phases_present[static_cast<int>(e.phase)] = true;
  }
  std::ostringstream out;
  out << "time";
  for (int p = 0; p < kNumPhases; ++p) {
    if (phases_present[p]) out << '\t' << PhaseName(static_cast<Phase>(p));
  }
  out << '\n';
  for (double t = 0; t <= horizon + step / 2; t += step) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", t);
    out << buf;
    for (int p = 0; p < kNumPhases; ++p) {
      if (phases_present[p]) {
        out << '\t' << ActiveAt(events, static_cast<Phase>(p), t);
      }
    }
    out << '\n';
  }
  return out.str();
}

}  // namespace bmr::mr
