#include "mr/engine.h"

#include <algorithm>
#include <cstdlib>

#include "common/arena.h"
#include "common/codec.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "concurrency/thread_pool.h"
#include "faults/fault_injector.h"
#include "mr/input.h"
#include "mr/job_control.h"
#include "mr/map_output.h"
#include "mr/obs_export.h"
#include "mr/shuffle_service.h"
#include "mr/task_executor.h"
#include "mr/task_scheduler.h"
#include "obs/metric_names.h"
#include "obs/trace.h"

namespace bmr::mr {

std::unique_ptr<ClusterContext> ClusterContext::Create(
    cluster::ClusterSpec spec) {
  auto ctx = std::make_unique<ClusterContext>();
  ctx->spec = std::move(spec);
  int n = static_cast<int>(ctx->spec.nodes.size());
  // Transport selection: the spec's knob wins, then the environment
  // (so whole test binaries can be re-run over TCP without code
  // changes), then the deterministic in-process default.
  std::string kind = ctx->spec.transport;
  if (kind.empty()) {
    const char* env = std::getenv("BMR_NET_TRANSPORT");
    if (env != nullptr) kind = env;
  }
  auto transport = net::CreateTransport(kind, n);
  if (!transport.ok()) {
    BMR_ERROR << "cannot create '" << kind
              << "' transport, falling back to inproc: "
              << transport.status();
    transport = net::CreateTransport("inproc", n);
  }
  ctx->transport = std::move(*transport);
  ctx->dfs = std::make_unique<dfs::Dfs>(ctx->transport.get(),
                                        ctx->spec.dfs_replication,
                                        ctx->spec.dfs_block_bytes);
  ctx->clients.resize(n);
  for (int i = 0; i < n; ++i) {
    ctx->clients[i] = std::make_unique<dfs::DfsClient>(ctx->dfs.get(), i);
  }
  return ctx;
}

void ClusterContext::KillNode(int node) {
  transport->KillNode(node);    // drops dn.*, shuffle fetch on that node
  dfs->KillDataNode(node);      // excludes it from future placement
}

void ClusterContext::InstallFaultInjector(faults::FaultInjector* injector) {
  fault_injector = injector;
  transport->SetFaultInjector(injector);
  if (injector != nullptr) {
    injector->BindCrash([this](int node) { KillNode(node); });
  }
}

namespace {

/// One job run: validates the spec, composes the scheduler / executor /
/// shuffle-service / metrics layers, submits the tasks, and assembles
/// the result.  All placement, retry, fetch, and metrics logic lives in
/// the layers.
class JobExecution {
 public:
  JobExecution(ClusterContext* cluster, const JobSpec& spec)
      : cluster_(cluster),
        spec_(spec),
        slaves_(cluster->spec.SlaveIds()) {}

  JobResult Run();

 private:
  Status Validate() const;
  Status PlanInput();

  /// Lost-output recovery: reopen the task and queue a fresh attempt
  /// on a node other than the one that lost it.
  void Relaunch(int map_task, int lost_node) {
    metrics_.AddCounter(kCtrMapTaskRetries, 1);
    double now = metrics_.Now();
    metrics_.RecordEvent(Phase::kRecovery, map_task, lost_node, now, now);
    scheduler_->ReopenTask(map_task);
    TaskScheduler::Attempt attempt = scheduler_->Assign(map_task, lost_node);
    map_pool_->Submit(
        [this, attempt] { map_executor_->Execute(attempt); });
  }

  ClusterContext* cluster_;
  const JobSpec& spec_;
  std::vector<int> slaves_;
  std::vector<InputSplit> splits_;

  MetricsRegistry metrics_;
  std::unique_ptr<ShuffleService> shuffle_;
  std::unique_ptr<TaskScheduler> scheduler_;
  std::unique_ptr<JobControl> control_;
  std::unique_ptr<MapTaskExecutor> map_executor_;
  std::unique_ptr<ReduceTaskExecutor> reduce_executor_;
  // Pools last: destroyed first, so no task can outlive the layers.
  std::unique_ptr<ThreadPool> map_pool_;
  std::unique_ptr<ThreadPool> reduce_pool_;
};

Status JobExecution::Validate() const {
  if (spec_.input_files.empty()) {
    return Status::InvalidArgument("job has no input files");
  }
  if (!spec_.mapper) return Status::InvalidArgument("job has no mapper");
  if (spec_.num_reducers < 1) {
    return Status::InvalidArgument("num_reducers must be >= 1");
  }
  if (spec_.barrierless && !spec_.incremental) {
    return Status::InvalidArgument(
        "barrier-less job needs an IncrementalReducer");
  }
  if (!spec_.barrierless && !spec_.reducer) {
    return Status::InvalidArgument("with-barrier job needs a Reducer");
  }
  if (slaves_.empty()) return Status::InvalidArgument("no slave nodes");
  return Status::Ok();
}

Status JobExecution::PlanInput() {
  BMR_ASSIGN_OR_RETURN(std::vector<std::string> inputs,
                       ExpandInputs(cluster_->client(0), spec_.input_files));
  BMR_ASSIGN_OR_RETURN(splits_,
                       PlanSplits(cluster_->client(0), inputs,
                                  spec_.input_kind, spec_.split_bytes));
  if (splits_.empty()) return Status::InvalidArgument("input is empty");
  return Status::Ok();
}

JobResult JobExecution::Run() {
  JobResult result;
  result.status = Validate();
  if (!result.status.ok()) return result;
  result.status = PlanInput();
  if (!result.status.ok()) return result;

  // Compose the layers.  The obs.trace knob arms the job's tracer
  // before any layer is built, so every span and latency sample of the
  // run lands in one log.  Tracing state is job-scoped; the shared
  // transport carries one observer at a time (same single-traced-job
  // caveat as the fault-injector clock below).
  const bool traced = spec_.config.GetBool("obs.trace", false);
  obs::Tracer* tracer = metrics_.tracer();
  if (traced) {
    metrics_.EnableTracing();
    cluster_->transport->SetObserver(tracer);
  }

  int nmaps = static_cast<int>(splits_.size());
  ShuffleService::Options shuffle_options;
  shuffle_options.injector = cluster_->fault_injector;
  shuffle_options.tracer = tracer;
  shuffle_options.max_fetch_retries = static_cast<int>(
      spec_.config.GetInt("shuffle.fetch.max_retries",
                          shuffle_options.max_fetch_retries));
  shuffle_options.backoff_ms = spec_.config.GetDouble(
      "shuffle.fetch.backoff_ms", shuffle_options.backoff_ms);
  shuffle_options.backoff_max_ms = spec_.config.GetDouble(
      "shuffle.fetch.backoff_max_ms", shuffle_options.backoff_max_ms);
  shuffle_options.fail_on_fetch_error =
      spec_.config.GetBool("shuffle.fail_on_fetch_error", false);
  // Segment codec selection mirrors the transport knob: the spec wins,
  // then the environment (BMR_SHUFFLE_CODEC — resolved inside
  // ShuffleService so directly-constructed services honor it too).  A
  // knob typo fails the job rather than silently running uncompressed.
  const std::string codec_name = spec_.config.GetString("shuffle.codec", "");
  if (!codec_name.empty()) {
    StatusOr<const Codec*> codec = FindCodec(codec_name);
    if (!codec.ok()) {
      result.status = codec.status();
      return result;
    }
    shuffle_options.codec = *codec;
  }
  shuffle_options.block_bytes = static_cast<size_t>(spec_.config.GetInt(
      "shuffle.block_bytes", static_cast<int64_t>(kDefaultShuffleBlockBytes)));
  const uint64_t job_id = cluster_->AllocateJobId();
  shuffle_ = std::make_unique<ShuffleService>(
      cluster_->transport.get(),
      static_cast<int>(cluster_->spec.nodes.size()), nmaps, job_id,
      shuffle_options);
  TaskScheduler::Options sched_options;
  sched_options.speculative = spec_.speculative_maps;
  sched_options.slowness = spec_.speculation_slowness;
  sched_options.min_runtime = spec_.speculation_min_runtime;
  scheduler_ =
      std::make_unique<TaskScheduler>(cluster_->spec, &splits_, sched_options);
  control_ = std::make_unique<JobControl>(shuffle_.get());
  auto relaunch = [this](int m, int node) { Relaunch(m, node); };
  map_executor_ = std::make_unique<MapTaskExecutor>(
      cluster_, spec_, &splits_, scheduler_.get(), shuffle_.get(), &metrics_,
      control_.get());
  reduce_executor_ = std::make_unique<ReduceTaskExecutor>(
      cluster_, spec_, shuffle_.get(), &metrics_, control_.get(), relaunch);
  map_pool_ =
      std::make_unique<ThreadPool>(cluster_->spec.total_map_slots());
  reduce_pool_ =
      std::make_unique<ThreadPool>(cluster_->spec.total_reduce_slots());

  // Launch.
  metrics_.RestartClock();
  obs::SpanId root_span = 0;
  if (traced) {
    // The job span stays open for the whole run; task spans parent to
    // it from the pool threads, so it is emitted manually at the end
    // rather than through a ScopedSpan.
    root_span = tracer->NextSpanId();
    tracer->SetRootSpan(root_span);
  }
  if (faults::FaultInjector* injector = cluster_->fault_injector) {
    // Stamp injected faults on this job's clock.  One job at a time per
    // injector: chaos runs drive a single job against the cluster.
    injector->SetClock([this] { return metrics_.Now(); });
  }
  for (int m = 0; m < nmaps; ++m) {
    TaskScheduler::Attempt attempt = scheduler_->Assign(m);
    map_pool_->Submit(
        [this, attempt] { map_executor_->Execute(attempt); });
  }
  for (int r = 0; r < spec_.num_reducers; ++r) {
    int node = slaves_[r % slaves_.size()];
    reduce_pool_->Submit(
        [this, r, node] { reduce_executor_->Execute(r, node); });
  }

  // Straggler watchdog: poll the scheduler for backup attempts every
  // 5 ms while map tasks are still uncommitted.  The wait is a timed
  // condvar wait, so stopping it does not sit out a poll interval.
  // Runs on a single-worker pool so the engine owns no raw std::threads
  // (lint rule).
  Mutex watchdog_mu;
  CondVar watchdog_cv;
  bool stop_watchdog = false;
  std::unique_ptr<ThreadPool> watchdog;
  if (spec_.speculative_maps) {
    watchdog = std::make_unique<ThreadPool>(1);
    watchdog->Submit([&] {
      MutexLock lock(watchdog_mu);
      while (!stop_watchdog) {
        if (control_->cancelled() || scheduler_->AllCommitted()) break;
        for (const TaskScheduler::Attempt& backup :
             scheduler_->PollSpeculation(metrics_.Now())) {
          map_pool_->Submit(
              [this, backup] { map_executor_->Execute(backup); });
        }
        (void)watchdog_cv.WaitFor(watchdog_mu, 5.0);
      }
    });
  }

  // Reducers finish only once every map output has been fetched, so
  // the watchdog can be retired before draining the map pool.
  reduce_pool_->Wait();
  {
    MutexLock lock(watchdog_mu);
    stop_watchdog = true;
  }
  watchdog_cv.NotifyAll();
  watchdog.reset();  // joins the watchdog worker
  map_pool_->Wait();

  // Export the faults that fired during this run into the job's own
  // observability: task events (instantaneous, task_id = kind) and
  // per-kind counters.
  if (faults::FaultInjector* injector = cluster_->fault_injector) {
    Counters fault_counters;
    for (const faults::FaultInjector::FaultRecord& rec :
         injector->DrainLog()) {
      metrics_.RecordEvent(Phase::kFault, static_cast<int>(rec.kind),
                           rec.node, rec.t, rec.t);
      fault_counters.Add(
          std::string(obs::kCtrFaultInjectedPrefix) +
              faults::FaultKindName(rec.kind),
          1);
      if (rec.kind == faults::FaultKind::kNodeCrash) {
        // An injected crash is always dump-worthy forensics, even when
        // recovery saves the job.
        metrics_.RequestDump("fault.node_crash node=" +
                             std::to_string(rec.node));
      }
    }
    metrics_.MergeCounters(fault_counters);
    injector->SetClock(nullptr);
  }

  if (traced) {
    // Close the job span (it contains every task span by construction)
    // and detach from the shared transport before another job traces.
    obs::Span job_span;
    job_span.id = root_span;
    job_span.name = obs::kSpanJob;
    job_span.category = "job";
    job_span.start_s = 0;
    job_span.end_s = tracer->Now();
    tracer->EmitSpan(job_span);
    cluster_->transport->SetObserver(nullptr);
  }

  const Status status = control_->status();
  if (!status.ok()) {
    metrics_.RequestDump(std::string("job.failure: ") + status.message());
  }

  static_cast<JobMetrics&>(result) = metrics_.Snapshot();
  result.rpc_handler_reregistrations =
      cluster_->transport->handler_reregistrations();
  SegmentEncodeStats encode_stats = shuffle_->encode_stats();
  result.data_plane.codec_raw_bytes = encode_stats.raw_bytes;
  result.data_plane.codec_wire_bytes = encode_stats.wire_bytes;
  Arena::GlobalStatsSnapshot arena_stats = Arena::GlobalStats();
  result.data_plane.arena_allocated_bytes = arena_stats.allocated_bytes;
  result.data_plane.arena_chunk_reuses = arena_stats.chunks_reused;
  BufferPool::Stats pool_stats = BufferPool::Global()->stats();
  result.data_plane.arena_buffer_reuses = pool_stats.reuses;
  result.data_plane.arena_cached_bytes = pool_stats.cached_bytes;

  result.status = status;

  // Post-mortem flight dump (GUIDE §15): a job that requested one —
  // injected crash, tainted-reducer restart, failure — writes one
  // artifact of its own record to the obs.flight_dir knob /
  // BMR_FLIGHT_DIR env.  No directory configured = no artifact.
  if (!result.dump_reasons.empty()) {
    std::string flight_dir = spec_.config.GetString("obs.flight_dir", "");
    if (flight_dir.empty()) {
      const char* env = std::getenv("BMR_FLIGHT_DIR");
      if (env != nullptr) flight_dir = env;
    }
    if (!flight_dir.empty()) {
      StatusOr<std::string> path = WriteFlightArtifact(result, flight_dir);
      if (path.ok()) {
        result.flight_dumps = 1;
        BMR_INFO << "flight dump " << *path << " ("
                 << result.dump_reasons.front() << ")";
      } else {
        BMR_WARN << "flight dump failed: " << path.status().message();
      }
    }
  }
  return result;
}

}  // namespace

JobResult JobRunner::Run(const JobSpec& spec) {
  // Job-level recovery of last resort: when task-level recovery could
  // not save a run (e.g. injected spill-file errors past the reduce
  // restart budget), rerun the whole job.  Off by default; memoized
  // sessions never auto-restart (a failed run may have saved partial
  // snapshots the rerun would double-count).
  int max_restarts =
      static_cast<int>(spec.config.GetInt("job.max_restarts", 0));
  if (spec.session != nullptr) max_restarts = 0;
  uint64_t restarts = 0;
  for (;;) {
    JobExecution execution(cluster_, spec);
    JobResult result = execution.Run();
    result.counters.Add(kCtrJobRestarts, restarts);
    bool recoverable =
        result.status.code() == StatusCode::kUnavailable ||
        result.status.code() == StatusCode::kDataLoss ||
        result.status.code() == StatusCode::kNotFound;
    if (result.ok() || !recoverable ||
        restarts >= static_cast<uint64_t>(max_restarts)) {
      return result;
    }
    ++restarts;
  }
}

StatusOr<std::vector<Record>> JobRunner::ReadPartFile(
    dfs::DfsClient* client, const std::string& path, OutputFormat format) {
  BMR_ASSIGN_OR_RETURN(std::string data, client->ReadAll(path));
  std::vector<Record> records;
  if (format == OutputFormat::kTextTsv) {
    BMR_RETURN_IF_ERROR(ParseTsvRecords(Slice(data), &records));
  } else {
    BMR_RETURN_IF_ERROR(DecodeSegment(Slice(data), &records));
  }
  return records;
}

StatusOr<std::vector<Record>> JobRunner::ReadAllOutput(
    dfs::DfsClient* client, const JobResult& result, OutputFormat format) {
  std::vector<Record> all;
  std::vector<std::string> files = result.output_files;
  std::sort(files.begin(), files.end());
  for (const auto& file : files) {
    BMR_ASSIGN_OR_RETURN(std::vector<Record> part,
                         ReadPartFile(client, file, format));
    all.insert(all.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  return all;
}

}  // namespace bmr::mr
