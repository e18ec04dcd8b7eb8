#include "service/job_service.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "mr/obs_export.h"
#include "obs/metric_names.h"

namespace bmr::service {

namespace {

/// Compose a per-pool series name: `bmr_..._total{pool="<name>"}`.
/// The exporter passes bmr_-prefixed counters through verbatim and
/// strips the label block for the family TYPE line (obs/export.cc).
std::string PoolSeries(const char* family, const std::string& pool) {
  return std::string(family) + "{pool=\"" + pool + "\"}";
}

/// Minimal JSON string escape for pool names in the /jobs snapshot.
std::string JsonQuoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
      continue;
    }
    out += c;
  }
  out += "\"";
  return out;
}

std::string JsonNum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

/// Parse `last=N` out of a /trace query string; 0 = everything.
size_t ParseLastParam(const std::string& query) {
  size_t pos = query.find("last=");
  if (pos == std::string::npos) return 0;
  return static_cast<size_t>(
      std::strtoull(query.c_str() + pos + 5, nullptr, 10));
}

}  // namespace

JobService::JobService(mr::ClusterContext* cluster, Options options)
    : cluster_(cluster), options_(options) {
  if (options_.max_running_jobs < 1) options_.max_running_jobs = 1;
  runners_ = std::make_unique<ThreadPool>(
      static_cast<size_t>(options_.max_running_jobs));
}

JobService::~JobService() { Shutdown(); }

Status JobService::AddPool(const PoolConfig& config) {
  MutexLock lock(mu_);
  if (shutdown_) {
    return Status::FailedPrecondition("job service is shut down");
  }
  Status st = tree_.AddPool(config);
  if (st.ok()) stats_[config.name];  // series exist from declaration on
  return st;
}

StatusOr<JobTicket> JobService::Submit(const std::string& pool,
                                       const mr::JobSpec& spec) {
  MutexLock lock(mu_);
  if (shutdown_) {
    return Status::FailedPrecondition("job service is shut down");
  }
  if (!tree_.HasPool(pool)) {
    return Status::NotFound("pool not found: " + pool);
  }
  // Service-wide admission bound.  Preemption first: an under-share
  // pool's submission evicts the newest queued job of the most
  // over-share pool instead of bouncing.
  if (tree_.total_queued() >= options_.max_queued_jobs) {
    std::string victim_pool;
    uint64_t victim_job = 0;
    if (options_.preemption &&
        tree_.PickPreemptionVictim(pool, &victim_pool, &victim_job)) {
      ++stats_[victim_pool].preempted;
      FailQueuedLocked(
          victim_job,
          Status::ResourceExhausted(
              "preempted while queued: pool " + victim_pool +
              " is over its fair share and the service queue is full"),
          /*preempted=*/true);
    } else {
      ++stats_[pool].rejected;
      return Status::ResourceExhausted("service queue full");
    }
  }
  uint64_t id = next_id_++;
  Status st = tree_.Enqueue(pool, id);
  if (!st.ok()) {
    ++stats_[pool].rejected;
    return st;
  }
  auto entry = std::make_shared<JobEntry>();
  entry->pool = pool;
  entry->spec = spec;
  entry->submit_s = clock_.ElapsedSeconds();
  jobs_.emplace(id, std::move(entry));
  ++stats_[pool].submitted;
  DispatchLocked();
  return JobTicket{id};
}

void JobService::DispatchLocked() {
  std::string pool;
  uint64_t id = 0;
  while (tree_.total_running() < options_.max_running_jobs &&
         tree_.StartNext(&pool, &id)) {
    auto it = jobs_.find(id);
    JobEntry& entry = *it->second;
    entry.state = JobState::kRunning;
    entry.start_s = clock_.ElapsedSeconds();
    stats_[pool].queue_wait_us.Add(
        static_cast<uint64_t>((entry.start_s - entry.submit_s) * 1e6));
    runners_->Submit([this, id] { RunJob(id); });
  }
}

void JobService::RunJob(uint64_t id) {
  mr::JobSpec spec;
  {
    MutexLock lock(mu_);
    spec = jobs_.at(id)->spec;
  }
  // The engine run happens outside the lock: other submissions, waits,
  // and metric scrapes proceed while the job executes.
  mr::JobResult result = mr::JobRunner(cluster_).Run(spec);

  MutexLock lock(mu_);
  auto it = jobs_.find(id);
  JobEntry& entry = *it->second;
  entry.result = std::move(result);
  entry.state = JobState::kDone;
  entry.end_s = clock_.ElapsedSeconds();
  PoolStats& stats = stats_[entry.pool];
  stats.latency_us.Add(
      static_cast<uint64_t>((entry.end_s - entry.submit_s) * 1e6));
  if (entry.result.ok()) {
    ++stats.completed;
  } else {
    ++stats.failed;
  }
  completion_order_.push_back(entry.pool);
  tree_.FinishJob(entry.pool);
  DispatchLocked();
  lock.Unlock();
  done_cv_.NotifyAll();
}

void JobService::FailQueuedLocked(uint64_t id, const Status& status,
                                  bool preempted) {
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return;
  JobEntry& entry = *it->second;
  entry.result.status = status;
  entry.state = JobState::kDone;
  entry.end_s = clock_.ElapsedSeconds();
  PoolStats& stats = stats_[entry.pool];
  stats.latency_us.Add(
      static_cast<uint64_t>((entry.end_s - entry.submit_s) * 1e6));
  if (!preempted) ++stats.failed;
  completion_order_.push_back(entry.pool);
  // Waiters may already be parked in Wait; the caller is inside the
  // public entry point that will NotifyAll after unlocking, but a
  // direct notify here keeps the contract local and costs nothing.
  done_cv_.NotifyAll();
}

JobOutcome JobService::Wait(const JobTicket& ticket) {
  MutexLock lock(mu_);
  auto it = jobs_.find(ticket.id);
  if (it == jobs_.end()) {
    JobOutcome outcome;
    outcome.status = Status::NotFound("unknown job ticket");
    return outcome;
  }
  std::shared_ptr<JobEntry> entry = it->second;
  while (entry->state != JobState::kDone) done_cv_.Wait(mu_);
  JobOutcome outcome;
  outcome.status = entry->result.status;
  outcome.result = entry->result;
  outcome.latency_seconds = entry->end_s - entry->submit_s;
  outcome.queue_wait_seconds =
      entry->start_s > 0 ? entry->start_s - entry->submit_s : 0;
  return outcome;
}

void JobService::Shutdown() {
  MutexLock lock(mu_);
  if (!shutdown_) {
    shutdown_ = true;
    // Cancel queued work: every queued job becomes terminal now, so
    // its waiters unblock instead of waiting on a dispatch that will
    // never come.
    for (auto& [id, entry] : jobs_) {
      if (entry->state != JobState::kQueued) continue;
      if (tree_.RemoveQueued(entry->pool, id)) {
        FailQueuedLocked(id, Status::Cancelled("job service shut down"),
                         /*preempted=*/false);
      }
    }
  }
  while (tree_.total_running() > 0) done_cv_.Wait(mu_);
  lock.Unlock();
  done_cv_.NotifyAll();
  // Runner threads may still be between their last job's NotifyAll and
  // thread exit; the pool's Wait is the real join point.
  runners_->Wait();
}

obs::MetricsSnapshot JobService::Metrics() const {
  MutexLock lock(mu_);
  obs::MetricsSnapshot snap;
  for (const auto& [pool, stats] : stats_) {
    snap.counters[PoolSeries(obs::kPromServiceJobsSubmitted, pool)] =
        stats.submitted;
    snap.counters[PoolSeries(obs::kPromServiceJobsCompleted, pool)] =
        stats.completed;
    snap.counters[PoolSeries(obs::kPromServiceJobsFailed, pool)] =
        stats.failed;
    snap.counters[PoolSeries(obs::kPromServiceJobsRejected, pool)] =
        stats.rejected;
    snap.counters[PoolSeries(obs::kPromServiceJobsPreempted, pool)] =
        stats.preempted;
    if (stats.latency_us.count() > 0) {
      snap.histograms[PoolSeries(obs::kHServiceJobLatencyUs, pool)] =
          stats.latency_us;
    }
    if (stats.queue_wait_us.count() > 0) {
      snap.histograms[PoolSeries(obs::kHServiceQueueWaitUs, pool)] =
          stats.queue_wait_us;
    }
  }
  snap.gauges[obs::kPromServiceJobsRunning] = tree_.total_running();
  snap.gauges[obs::kPromServiceJobsQueued] =
      static_cast<double>(tree_.total_queued());
  return snap;
}

std::string JobService::PrometheusMetrics() const {
  return obs::PrometheusText(Metrics());
}

std::vector<std::string> JobService::CompletionOrder() const {
  MutexLock lock(mu_);
  return completion_order_;
}

std::string JobService::JobsJson() const {
  std::vector<PoolTree::PoolSnapshot> pools;
  std::map<std::string, PoolStats> stats;
  size_t total_queued = 0;
  int total_running = 0;
  {
    MutexLock lock(mu_);
    pools = tree_.SnapshotPools();
    stats = stats_;
    total_queued = tree_.total_queued();
    total_running = tree_.total_running();
  }
  std::string out = "{\"total_queued\":" + std::to_string(total_queued) +
                    ",\"total_running\":" + std::to_string(total_running) +
                    ",\"pools\":[";
  bool first = true;
  for (const PoolTree::PoolSnapshot& p : pools) {
    if (!first) out += ",";
    first = false;
    const PoolStats& s = stats[p.config.name];
    out += "{\"name\":" + JsonQuoted(p.config.name) +
           ",\"parent\":" + JsonQuoted(p.config.parent) +
           ",\"weight\":" + JsonNum(p.config.weight) +
           ",\"min_share_slots\":" + std::to_string(p.config.min_share_slots) +
           ",\"max_share_slots\":" + std::to_string(p.config.max_share_slots) +
           ",\"queue_limit\":" + std::to_string(p.config.queue_limit) +
           ",\"queued\":" + std::to_string(p.queued) +
           ",\"running\":" + std::to_string(p.running) +
           ",\"started\":" + std::to_string(p.started) +
           ",\"submitted\":" + std::to_string(s.submitted) +
           ",\"completed\":" + std::to_string(s.completed) +
           ",\"failed\":" + std::to_string(s.failed) +
           ",\"rejected\":" + std::to_string(s.rejected) +
           ",\"preempted\":" + std::to_string(s.preempted) + "}";
  }
  out += "]}";
  return out;
}

std::string JobService::TraceJson(size_t last_n) const {
  std::shared_ptr<const JobEntry> latest;
  {
    MutexLock lock(mu_);
    for (const auto& [id, entry] : jobs_) {
      if (entry->state != JobState::kDone || entry->start_s == 0) continue;
      if (latest == nullptr || entry->end_s > latest->end_s) latest = entry;
    }
  }
  // A finished entry is never written again, so it renders off-lock.
  if (latest == nullptr) return obs::PerfettoTraceJson(obs::TraceLog());
  return mr::FlightTraceJson(latest->result, last_n);
}

Status JobService::ServeIntrospection(int port) {
  StatusOr<std::unique_ptr<obs::HttpIntrospectServer>> server =
      obs::HttpIntrospectServer::Create(port);
  if (!server.ok()) return server.status();
  introspect_ = std::move(*server);
  introspect_->Handle(
      "/metrics", "text/plain; version=0.0.4",
      [this](const std::string&) { return PrometheusMetrics(); });
  introspect_->Handle("/jobs", "application/json",
                      [this](const std::string&) { return JobsJson(); });
  introspect_->Handle("/trace", "application/json",
                      [this](const std::string& query) {
                        return TraceJson(ParseLastParam(query));
                      });
  return Status::Ok();
}

int JobService::introspect_port() const {
  return introspect_ != nullptr ? introspect_->port() : 0;
}

}  // namespace bmr::service
