// The real execution engine: runs a JobSpec on one cluster context
// (net transport + DFS + per-node slots), in either with-barrier or
// barrier-less mode, on real data.
//
// JobRunner::Run is a thin composition of four layers, each its own
// translation unit with a narrow interface:
//   TaskScheduler   (task_scheduler.h)  placement, attempts, retry,
//                                       speculative backup tasks
//   executors       (task_executor.h)   one map / reduce attempt body
//   ShuffleService  (shuffle_service.h) job-scoped segment stores,
//                                       tracker, fetch copiers, sinks
//   MetricsRegistry (metrics.h)         counters, samples, timeline
//
// Mode structure mirrors Hadoop 0.20 as described in §3.1 of the
// paper:
//   with barrier  — map tasks sort+store output locally; each reducer's
//                   kFetchCopies copier threads pull finished maps off
//                   a completion log into per-mapper buffers
//                   (BarrierSink); when all are in (the barrier),
//                   buffers are merge-sorted and Reduce runs per group.
//   barrier-less  — the same copiers push records into a single
//                   FIFO buffer (FifoSink); the reduce thread runs the
//                   single-record Reduce on them in arrival order via
//                   the core::BarrierlessDriver (sort bypassed).
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "dfs/dfs.h"
#include "mr/job.h"
#include "mr/metrics.h"
#include "mr/timeline.h"
#include "mr/types.h"
#include "net/transport.h"

namespace bmr::faults {
class FaultInjector;
}  // namespace bmr::faults

namespace bmr::mr {

/// Wires the substrates into one cluster: the spec's `transport` knob
/// (or BMR_NET_TRANSPORT) picks the net::Transport carrying all RPC
/// and shuffle traffic — in-process by default.  Shared-cluster
/// mode: any number of JobRunners may run concurrently against one
/// context — every job draws a unique id from AllocateJobId() and all
/// of its shuffle state is scoped to that id.
struct ClusterContext {
  cluster::ClusterSpec spec;
  std::unique_ptr<net::Transport> transport;
  std::unique_ptr<dfs::Dfs> dfs;
  std::vector<std::unique_ptr<dfs::DfsClient>> clients;
  std::atomic<int> next_job_id{0};
  /// Chaos-test hook, installed via InstallFaultInjector.  Not owned.
  faults::FaultInjector* fault_injector = nullptr;

  static std::unique_ptr<ClusterContext> Create(cluster::ClusterSpec spec);

  dfs::DfsClient* client(int node) { return clients[node].get(); }

  /// Next unique job id on this cluster (shuffle-service scoping).
  int AllocateJobId() { return next_job_id.fetch_add(1); }

  /// Simulate a machine loss: DFS blocks gone, shuffle service gone.
  void KillNode(int node);

  /// Install (or with nullptr, remove) a deterministic fault injector:
  /// hooks it into the transport and binds its node-crash action to
  /// KillNode.  The injector must outlive every job run against this
  /// cluster while installed.
  void InstallFaultInjector(faults::FaultInjector* injector);
};

/// A finished run: the metrics schema shared with the simulator
/// (simmr::ToJobMetrics), plus the run's outcome.
struct JobResult : JobMetrics {
  Status status;

  bool ok() const { return status.ok(); }
  /// True when the job died of partial-result heap overflow (Fig 5a).
  bool failed_oom() const {
    return status.code() == StatusCode::kResourceExhausted;
  }
};

class JobRunner {
 public:
  explicit JobRunner(ClusterContext* cluster) : cluster_(cluster) {}

  /// Execute the job to completion (or failure).  Blocking.
  JobResult Run(const JobSpec& spec);

  /// Read one output part file (test/bench helper).
  [[nodiscard]] static StatusOr<std::vector<Record>> ReadPartFile(
      dfs::DfsClient* client, const std::string& path,
      OutputFormat format = OutputFormat::kFramedBinary);

  /// Read and concatenate all part files of a finished job.
  [[nodiscard]] static StatusOr<std::vector<Record>> ReadAllOutput(
      dfs::DfsClient* client, const JobResult& result,
      OutputFormat format = OutputFormat::kFramedBinary);

 private:
  ClusterContext* cluster_;
};

}  // namespace bmr::mr
