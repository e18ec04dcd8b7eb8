// Long-running multi-tenant job service (ROADMAP item 2): accepts
// queued JobSpec submissions from many tenants and schedules them over
// one shared ClusterContext (PR 1's job-scoped shuffle makes the
// concurrent runs safe).  Admission, ordering, and preemption are the
// PoolTree's policy (pool_tree.h); this class adds the runtime:
//
//   Submit  — non-blocking admission.  Fast-fails with
//             ResourceExhausted when the pool queue (or, when
//             preemption finds no over-share victim, the service-wide
//             queue) is full; never blocks the submitter.
//   Wait    — blocks until the ticket's job completed, failed, was
//             preempted, or was cancelled by Shutdown.
//   Metrics — per-pool bmr_service_* counter/histogram families plus
//             occupancy gauges as an obs::MetricsSnapshot, exportable
//             through the PR 5 Prometheus text exposition.
//
// Concurrency shape: one mutex guards the tree and the job table;
// it is never held across a JobRunner::Run (jobs execute on a runner
// ThreadPool sized to max_running_jobs, the cluster's job slots).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/thread_annotations.h"
#include "concurrency/thread_pool.h"
#include "mr/engine.h"
#include "obs/export.h"
#include "obs/http_introspect.h"
#include "service/pool_tree.h"

namespace bmr::service {

struct JobServiceOptions {
  /// Concurrent jobs executing against the cluster (runner threads).
  int max_running_jobs = 2;
  /// Service-wide bound on admitted-but-not-running jobs; hitting it
  /// triggers preemption (or rejection when no victim qualifies).
  size_t max_queued_jobs = 64;
  /// Evict over-share queued work for under-share submitters at the
  /// global bound; off = plain rejection.
  bool preemption = true;
};

/// Handle for one admitted submission.
struct JobTicket {
  uint64_t id = 0;
};

/// Terminal state of one admitted submission.
struct JobOutcome {
  /// Ok = ran and succeeded.  ResourceExhausted = preempted while
  /// queued.  Cancelled = service shut down first.  Anything else =
  /// the engine's failure status.
  Status status;
  /// Engine result; meaningful only for jobs that actually ran.
  mr::JobResult result;
  double queue_wait_seconds = 0;  // submit -> start (0 if never ran)
  double latency_seconds = 0;     // submit -> terminal state
};

class JobService {
 public:
  using Options = JobServiceOptions;

  JobService(mr::ClusterContext* cluster, Options options = {});
  ~JobService();  // Shutdown()

  JobService(const JobService&) = delete;
  JobService& operator=(const JobService&) = delete;

  /// Declare a pool (see PoolConfig).  Pools are fixed topology: add
  /// them before the submissions that use them.
  [[nodiscard]] Status AddPool(const PoolConfig& config) BMR_EXCLUDES(mu_);

  /// Admit one job into `pool`.  Non-blocking; see class comment for
  /// the fast-fail cases.  An admitted job WILL reach a terminal state
  /// observable through Wait.
  [[nodiscard]] StatusOr<JobTicket> Submit(const std::string& pool,
                                           const mr::JobSpec& spec)
      BMR_EXCLUDES(mu_);

  /// Block until the ticket's job reaches a terminal state.
  JobOutcome Wait(const JobTicket& ticket) BMR_EXCLUDES(mu_);

  /// Stop admitting, cancel everything still queued (their waiters get
  /// Cancelled), and wait for running jobs to finish.  Idempotent.
  void Shutdown() BMR_EXCLUDES(mu_);

  /// Per-pool bmr_service_* families + occupancy gauges.
  obs::MetricsSnapshot Metrics() const BMR_EXCLUDES(mu_);
  /// Metrics() through the Prometheus text exposition.
  std::string PrometheusMetrics() const BMR_EXCLUDES(mu_);

  /// JSON snapshot of the pool tree for the /jobs endpoint (GUIDE
  /// §15): per-pool config (weight, shares, queue bound), occupancy
  /// (queued/running/started), and lifetime outcome counters.
  std::string JobsJson() const BMR_EXCLUDES(mu_);

  /// Perfetto JSON of the most recently finished job's record for the
  /// /trace endpoint: the flight view (mr::FlightTraceJson) cut to its
  /// last `last_n` events (0 = all).  An empty trace before any job
  /// has finished; a running job shows only once it ends.
  std::string TraceJson(size_t last_n) const BMR_EXCLUDES(mu_);

  /// Start the live introspection endpoints on 127.0.0.1:`port` (0 =
  /// ephemeral): /metrics (Prometheus exposition), /jobs (pool-tree
  /// JSON), /trace?last=N (TraceJson).
  [[nodiscard]] Status ServeIntrospection(int port) BMR_EXCLUDES(mu_);
  /// The bound introspection port; 0 before ServeIntrospection.
  int introspect_port() const;

  /// Pool name of every terminal job, in completion order (fairness
  /// assertions: the prefix of length N is the first N completions).
  std::vector<std::string> CompletionOrder() const BMR_EXCLUDES(mu_);

 private:
  enum class JobState { kQueued, kRunning, kDone };

  struct JobEntry {
    std::string pool;
    mr::JobSpec spec;
    JobState state = JobState::kQueued;
    mr::JobResult result;
    double submit_s = 0;
    double start_s = 0;
    double end_s = 0;
  };

  /// Per-pool counters + latency families behind the bmr_service_*
  /// series (metric_names.h).
  struct PoolStats {
    uint64_t submitted = 0;
    uint64_t completed = 0;
    uint64_t failed = 0;
    uint64_t rejected = 0;
    uint64_t preempted = 0;
    LogHistogram latency_us;
    LogHistogram queue_wait_us;
  };

  /// Move every startable queued job onto the runner pool.
  void DispatchLocked() BMR_REQUIRES(mu_);
  /// Terminal state for a job that never ran (preempted / cancelled).
  void FailQueuedLocked(uint64_t id, const Status& status, bool preempted)
      BMR_REQUIRES(mu_);
  void RunJob(uint64_t id) BMR_EXCLUDES(mu_);

  mr::ClusterContext* cluster_;
  Options options_;
  Stopwatch clock_;

  mutable OrderedMutex mu_{"service.job_service"};
  CondVar done_cv_;
  PoolTree tree_ BMR_GUARDED_BY(mu_);
  std::map<uint64_t, std::shared_ptr<JobEntry>> jobs_ BMR_GUARDED_BY(mu_);
  std::map<std::string, PoolStats> stats_ BMR_GUARDED_BY(mu_);
  std::vector<std::string> completion_order_ BMR_GUARDED_BY(mu_);
  uint64_t next_id_ BMR_GUARDED_BY(mu_) = 1;
  bool shutdown_ BMR_GUARDED_BY(mu_) = false;

  // Last members, destroyed first: runner threads and the introspection
  // listener (whose handlers lock mu_) must stop before the state above
  // dies.
  std::unique_ptr<ThreadPool> runners_;
  std::unique_ptr<obs::HttpIntrospectServer> introspect_;
};

}  // namespace bmr::service
