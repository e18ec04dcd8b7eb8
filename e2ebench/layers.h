// Per-layer numbers for the traced run, all recorded from the
// benchmark's side of each module's public API (nothing inside src/ is
// instrumented for it):
//
//   in-job       AppTrace decorators wrap the app's Mapper, Reducer and
//                IncrementalReducer factories, so user code is timed
//                inside a real JobRunner::Run;
//   stage replay ReplayStages drives the workload's own data through
//                the public dfs, net, mr and core calls the engine makes
//                internally, one stage at a time.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "mr/engine.h"
#include "mr/job.h"
#include "workloads.h"

namespace e2ebench {

using Clock = std::chrono::steady_clock;

inline double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// One in every kSampleEvery calls of Map, Reduce and Update is timed
/// (with the engine calls it makes subtracted); every call is counted.
/// Timing all ~10M Update calls of wc-mem would cost more than the
/// fold it measures.
inline constexpr uint64_t kSampleEvery = 16;

/// Accumulators shared by every decorated task of one traced job.
struct AppTrace {
  Clock::time_point job_start;
  std::atomic<uint64_t> map_calls{0};
  std::atomic<uint64_t> map_self_ns{0};  // sampled calls only
  std::atomic<uint64_t> map_sampled{0};
  std::atomic<uint64_t> update_calls{0};
  std::atomic<uint64_t> update_self_ns{0};
  std::atomic<uint64_t> update_sampled{0};
  std::atomic<uint64_t> reduce_calls{0};
  std::atomic<uint64_t> reduce_self_ns{0};
  std::atomic<uint64_t> reduce_sampled{0};
  /// Nanoseconds from job_start to the first Update / Reduce call.
  std::atomic<uint64_t> first_reduce_ns{UINT64_MAX};

  /// Estimated total self time: sampled self time scaled by the
  /// sampling ratio actually achieved.
  static double Estimate(uint64_t self_ns, uint64_t sampled, uint64_t calls) {
    return sampled == 0 ? 0.0
                        : 1e-9 * static_cast<double>(self_ns) *
                              static_cast<double>(calls) /
                              static_cast<double>(sampled);
  }
};

/// Wrap the spec's mapper, reducer and incremental factories with
/// timing decorators feeding `trace`, which must outlive the job.
bmr::mr::JobSpec DecorateApp(bmr::mr::JobSpec spec, AppTrace* trace);

/// Drive the workload's data through each engine stage on `cluster`
/// (which holds the workload's input) and append the stage metrics.
/// Spill files and KV logs go under the workload's store scratch_dir.
[[nodiscard]] Status ReplayStages(const Workload& workload,
                                  bmr::mr::ClusterContext* cluster,
                                  Metrics* out);

}  // namespace e2ebench
