// Map and reduce task executors: the task-attempt bodies of the old
// monolithic JobExecution, behind narrow interfaces.  Executors hold
// no scheduling or placement logic — they run exactly one attempt and
// report through TaskScheduler (commit), ShuffleService (segments,
// fetches), and MetricsRegistry (counters, samples, timeline).
#pragma once

#include <vector>

#include "mr/engine.h"
#include "mr/input.h"
#include "mr/job.h"
#include "mr/job_control.h"
#include "mr/metrics.h"
#include "mr/shuffle_service.h"
#include "mr/task_scheduler.h"

namespace bmr::mr {

class ReduceTaskContext;  // defined in task_executor.cc

/// Runs one map task attempt: read the split, run the mapper, finish
/// (sort/combine/serialize) the output, then race to commit.  The
/// first attempt of a task to commit publishes its segments; a losing
/// attempt (speculative race or stale retry) discards its output.
class MapTaskExecutor {
 public:
  MapTaskExecutor(ClusterContext* cluster, const JobSpec& spec,
                  const std::vector<InputSplit>* splits,
                  TaskScheduler* scheduler, ShuffleService* shuffle,
                  MetricsRegistry* metrics, JobControl* control)
      : cluster_(cluster),
        spec_(spec),
        splits_(splits),
        scheduler_(scheduler),
        shuffle_(shuffle),
        metrics_(metrics),
        control_(control) {}

  void Execute(TaskScheduler::Attempt attempt);

 private:
  ClusterContext* cluster_;
  const JobSpec& spec_;
  const std::vector<InputSplit>* splits_;
  TaskScheduler* scheduler_;
  ShuffleService* shuffle_;
  MetricsRegistry* metrics_;
  JobControl* control_;
};

/// Runs one reduce task: fetch every mapper's segment through the
/// ShuffleService (BarrierSink or FifoSink), reduce, and write the
/// part file.  Both modes share the fetch substrate and differ only in
/// the sink and the reduce driver.
class ReduceTaskExecutor {
 public:
  ReduceTaskExecutor(ClusterContext* cluster, const JobSpec& spec,
                     ShuffleService* shuffle, MetricsRegistry* metrics,
                     JobControl* control,
                     ShuffleService::RelaunchFn relaunch)
      : cluster_(cluster),
        spec_(spec),
        shuffle_(shuffle),
        metrics_(metrics),
        control_(control),
        relaunch_(std::move(relaunch)) {}

  /// Runs the reduce task to completion, restarting the attempt from
  /// scratch (fresh sink, fetch, and partial store) when it fails
  /// recoverably — most importantly when the attempt consumed map
  /// output that was later lost to a node death (a tainted fetch, the
  /// restart cost of consuming before the barrier).  Unrecoverable
  /// errors and exhausted restarts fail the job.
  void Execute(int r, int node);

 private:
  [[nodiscard]] Status RunBarrier(int r, int node, ReduceTaskContext* ctx);
  [[nodiscard]] Status RunBarrierless(int r, int node, ReduceTaskContext* ctx);
  [[nodiscard]] Status FinishFetch(
      std::unique_ptr<ShuffleService::Fetch> fetch, ReduceTaskContext* ctx);
  [[nodiscard]] Status WriteOutput(int r, int node, const std::vector<Record>& records);

  ClusterContext* cluster_;
  const JobSpec& spec_;
  ShuffleService* shuffle_;
  MetricsRegistry* metrics_;
  JobControl* control_;
  ShuffleService::RelaunchFn relaunch_;
};

}  // namespace bmr::mr
