// bmr_trace: run any registered app (or a simmr profile) with tracing
// on and emit the observability artifacts — Chrome/Perfetto trace JSON
// and Prometheus text exposition — plus an optional human report.
//
//   bmr_trace --app=wordcount --mode=barrierless --store=spill
//             --trace-out=trace.json --prom-out=metrics.prom --report
//   bmr_trace --sim --sim-gb=1 --trace-out=sim.json --prom-out=sim.prom
//   bmr_trace --check        # self-test: the `check.sh obs` leg
//   bmr_trace --stragglers   # per-task skew + wire/handler RTT split
//   bmr_trace --serve=20     # job service + live introspection HTTP
//   bmr_trace --validate-trace=F / --validate-prom=F / --validate-json=F
//   bmr_trace --validate-flight=DIR   # flight-dump artifacts
//
// Open the JSON at https://ui.perfetto.dev (or chrome://tracing); see
// docs/GUIDE.md §10 for the span taxonomy and §15 for the distributed
// tracing / introspection / flight-dump model.
#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/knn.h"
#include "apps/registry.h"
#include "apps/wordcount.h"
#include "mr/engine.h"
#include "mr/obs_export.h"
#include "mr/timeline.h"
#include "obs/metric_names.h"
#include "obs/validate.h"
#include "service/job_service.h"
#include "simmr/hadoop_sim.h"
#include "simmr/profiles.h"
#include "workload/generators.h"

namespace bmr {
namespace {

struct CliOptions {
  std::string app = "wordcount";
  std::string mode = "barrierless";
  std::string store = "mem";
  int reducers = 4;
  int input_kb = 64;
  std::string trace_out = "trace.json";
  std::string prom_out = "metrics.prom";
  bool sim = false;
  double sim_gb = 0.5;
  bool report = false;
  bool check = false;
  bool stragglers = false;
  int serve_seconds = 0;          // > 0 = --serve mode
  std::string validate_trace;     // file paths; non-empty = validate mode
  std::string validate_prom;
  std::string validate_json;
  std::string validate_flight;    // directory of flight artifacts
};

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) return false;
  *out = arg + prefix.size();
  return true;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: bmr_trace [--app=NAME] [--mode=barrierless|barrier]\n"
      "                 [--store=mem|spill|kv] [--reducers=N]\n"
      "                 [--input-kb=N] [--trace-out=F] [--prom-out=F]\n"
      "                 [--sim] [--sim-gb=G] [--report] [--check]\n"
      "                 [--stragglers] [--serve=SECONDS]\n"
      "                 [--validate-trace=F] [--validate-prom=F]\n"
      "                 [--validate-json=F] [--validate-flight=DIR]\n");
  return 2;
}

/// Generate a small DFS-resident workload for `app` (mirrors the
/// matrix test's generators, scaled by input_kb where it applies).
StatusOr<apps::AppOptions> PrepareWorkload(mr::ClusterContext* cluster,
                                           const CliOptions& cli) {
  apps::AppOptions options;
  const std::string& app = cli.app;
  if (app == "grep" || app == "wordcount") {
    workload::TextGenOptions gen;
    gen.total_bytes = static_cast<uint64_t>(cli.input_kb) << 10;
    gen.vocabulary = app == "grep" ? 80 : 400;
    gen.seed = 41;
    BMR_ASSIGN_OR_RETURN(options.input_files,
                         workload::GenerateZipfText(cluster, "/" + app, gen));
    if (app == "grep") options.extra.Set("grep.pattern", "w1");
  } else if (app == "sort") {
    workload::IntGenOptions gen;
    gen.count = cli.input_kb * 125;  // ~8 bytes/int
    gen.seed = 42;
    BMR_ASSIGN_OR_RETURN(options.input_files,
                         workload::GenerateRandomInts(cluster, "/" + app, gen));
  } else if (app == "knn") {
    workload::KnnGenOptions gen;
    gen.training_size = 40;
    gen.experimental_count = 600;
    gen.seed = 43;
    BMR_ASSIGN_OR_RETURN(auto data,
                         workload::GenerateKnnData(cluster, "/" + app, gen));
    options.input_files = data.experimental_files;
    options.extra.SetInt("knn.k", 7);
    options.extra.Set("knn.training", apps::EncodeTrainingSet(data.training));
  } else if (app == "lastfm") {
    workload::ListenGenOptions gen;
    gen.count = 8000;
    gen.num_users = 25;
    gen.num_tracks = 120;
    gen.seed = 44;
    BMR_ASSIGN_OR_RETURN(options.input_files,
                         workload::GenerateListens(cluster, "/" + app, gen));
  } else if (app == "genetic") {
    workload::PopulationGenOptions gen;
    gen.population = 4000;
    gen.seed = 45;
    BMR_ASSIGN_OR_RETURN(options.input_files,
                         workload::GeneratePopulation(cluster, "/" + app, gen));
    options.extra.SetInt("ga.window", 16);
  } else if (app == "blackscholes") {
    workload::BlackScholesGenOptions gen;
    gen.num_mappers = 2;
    gen.iterations_per_mapper = 4000;
    gen.seed = 46;
    BMR_ASSIGN_OR_RETURN(
        options.input_files,
        workload::GenerateBlackScholesUnits(cluster, "/" + app, gen));
  } else {
    return Status::InvalidArgument("no workload generator for app " + app);
  }
  return options;
}

StatusOr<mr::JobMetrics> RunTracedApp(const CliOptions& cli) {
  const apps::AppCase* app = apps::FindApp(cli.app);
  if (app == nullptr) return Status::NotFound("unknown app " + cli.app);

  cluster::ClusterSpec spec = cluster::SmallCluster(3);
  spec.dfs_block_bytes = 16 << 10;  // several map tasks even when small
  auto cluster = mr::ClusterContext::Create(std::move(spec));

  BMR_ASSIGN_OR_RETURN(apps::AppOptions options,
                       PrepareWorkload(cluster.get(), cli));
  options.output_path = "/out";
  options.num_reducers = cli.reducers;
  options.barrierless = cli.mode != "barrier";
  if (cli.store == "spill") {
    options.store.type = core::StoreType::kSpillMerge;
    options.store.spill_threshold_bytes = 16 << 10;
  } else if (cli.store == "kv") {
    options.store.type = core::StoreType::kKvStore;
    options.store.kv_cache_bytes = 16 << 10;
  } else if (cli.store != "mem") {
    return Status::InvalidArgument("unknown store " + cli.store);
  }
  options.extra.SetBool("obs.trace", true);

  mr::JobRunner runner(cluster.get());
  mr::JobResult result = runner.Run(app->make_job(options));
  BMR_RETURN_IF_ERROR(result.status);
  return mr::JobMetrics(std::move(result));
}

mr::JobMetrics RunSim(const CliOptions& cli) {
  simmr::SimResult result = simmr::SimulateJob(
      cluster::PaperCluster(), simmr::WordCountSim(cli.sim_gb, cli.reducers));
  return simmr::ToJobMetrics(result);
}

/// --stragglers: per-task skew from the stitched span tree — task
/// durations grouped by span arg (task id), flagging tasks beyond
/// 1.5x the phase median — plus the wire-vs-handler split of the
/// shuffle fetch RTT, which only exists once rpc.handler spans stitch
/// under shuffle.fetch parents (GUIDE §15).
void PrintStragglerReport(const mr::JobMetrics& metrics) {
  for (const char* phase : {obs::kSpanMapTask, obs::kSpanReduceTask}) {
    // One duration per task id: tasks can have several attempts
    // (speculation, restarts); keep the longest, which is what skew
    // hunting cares about.
    std::map<int64_t, double> by_task;
    for (const obs::Span& s : metrics.trace.spans) {
      if (std::strcmp(s.name, phase) != 0 || s.arg < 0) continue;
      double dur = (s.end_s - s.start_s) * 1e3;
      if (dur > by_task[s.arg]) by_task[s.arg] = dur;
    }
    if (by_task.empty()) {
      std::printf("[stragglers] %s: no spans\n", phase);
      continue;
    }
    std::vector<double> durs;
    for (const auto& [task, dur] : by_task) durs.push_back(dur);
    std::sort(durs.begin(), durs.end());
    double median = durs[durs.size() / 2];
    double max = durs.back();
    std::printf("[stragglers] %s: %zu tasks, median %.2f ms, max %.2f ms "
                "(skew %.2fx)\n",
                phase, by_task.size(), median, max,
                median > 0 ? max / median : 0.0);
    for (const auto& [task, dur] : by_task) {
      if (median > 0 && dur > 1.5 * median) {
        std::printf("[stragglers]   task %lld: %.2f ms (%.2fx median)\n",
                    static_cast<long long>(task), dur, dur / median);
      }
    }
  }

  // Wire vs handler share of the fetch RTT: handler spans propagated
  // across the transport parent directly under their shuffle.fetch
  // client span, so RTT - handler time = wire + queueing.
  std::set<obs::SpanId> fetch_ids;
  double fetch_total_s = 0;
  size_t fetches = 0;
  for (const obs::Span& s : metrics.trace.spans) {
    if (std::strcmp(s.name, obs::kSpanShuffleFetch) != 0) continue;
    fetch_ids.insert(s.id);
    fetch_total_s += s.end_s - s.start_s;
    ++fetches;
  }
  double handler_total_s = 0;
  size_t handlers = 0;
  for (const obs::Span& s : metrics.trace.spans) {
    if (std::strcmp(s.name, obs::kSpanRpcHandler) != 0) continue;
    if (fetch_ids.count(s.parent) == 0) continue;
    handler_total_s += s.end_s - s.start_s;
    ++handlers;
  }
  if (fetches > 0 && handlers > 0) {
    double wire_share = 1.0 - handler_total_s / fetch_total_s;
    std::printf(
        "[stragglers] fetch RTT split: %zu fetches (mean %.1f us), "
        "%zu handler spans (mean %.1f us), wire+queue share %.0f%%\n",
        fetches, fetch_total_s * 1e6 / fetches, handlers,
        handler_total_s * 1e6 / handlers, wire_share * 100.0);
  } else {
    std::printf("[stragglers] fetch RTT split: no stitched handler spans\n");
  }
}

int EmitArtifacts(const mr::JobMetrics& metrics, const CliOptions& cli,
                  const char* label) {
  Status st =
      mr::WriteTraceArtifacts(metrics, cli.trace_out, cli.prom_out);
  if (!st.ok()) {
    std::fprintf(stderr, "bmr_trace: %s artifacts failed: %s\n", label,
                 st.ToString().c_str());
    return 1;
  }
  std::printf("[%s] trace: %s\n[%s] prometheus: %s\n", label,
              cli.trace_out.c_str(), label, cli.prom_out.c_str());
  if (cli.report) {
    std::fputs(mr::FormatJobMetrics(label, metrics).c_str(), stdout);
    std::fputs(mr::RenderActivity(metrics.events, /*step=*/0.01).c_str(),
               stdout);
    if (metrics.trace_enabled) {
      std::printf("[%s] spans dropped at central cap: %llu\n", label,
                  static_cast<unsigned long long>(metrics.spans_dropped));
    }
  }
  if (cli.stragglers) PrintStragglerReport(metrics);
  return 0;
}

StatusOr<std::string> ReadFileText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The --validate-flight check: every *.json artifact in `dir` must be
/// a valid Perfetto document carrying its dump-trigger instant and the
/// job's task-phase spans, and there must be at least one (a faulted
/// run that dumped nothing is a flight-dump regression, not a pass).
Status ValidateFlightDir(const std::string& dir, size_t* artifacts) {
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return Status::NotFound("cannot open directory " + dir);
  Status st;
  *artifacts = 0;
  while (dirent* entry = readdir(d)) {
    std::string name = entry->d_name;
    if (name.size() < 5 || name.compare(name.size() - 5, 5, ".json") != 0) {
      continue;
    }
    const std::string path = dir + "/" + name;
    StatusOr<std::string> text = ReadFileText(path);
    st = text.status();
    if (st.ok()) st = obs::ValidatePerfettoJson(*text, /*min_spans=*/1);
    if (st.ok() &&
        text->find(obs::kFlightTriggerCategory) == std::string::npos) {
      st = Status::InvalidArgument(
          std::string("no ") + obs::kFlightTriggerCategory +
          " event (dump without a recorded trigger)");
    }
    if (st.ok() && text->find("\"cat\":\"task\"") == std::string::npos) {
      st = Status::InvalidArgument("no task-phase span");
    }
    if (!st.ok()) {
      st = Status::InvalidArgument(path + ": " + st.message());
      break;
    }
    ++*artifacts;
  }
  closedir(d);
  if (st.ok() && *artifacts == 0) {
    st = Status::NotFound("no flight artifacts in " + dir);
  }
  return st;
}

/// The check.sh obs leg: run a traced wordcount and a simulated run
/// through the same exporters; validate both artifacts structurally
/// and assert the promised span names and histogram families exist.
int RunCheck(CliOptions cli) {
  auto fail = [](const std::string& what) {
    std::fprintf(stderr, "bmr_trace --check FAILED: %s\n", what.c_str());
    return 1;
  };

  cli.app = "wordcount";
  cli.mode = "barrierless";
  StatusOr<mr::JobMetrics> metrics = RunTracedApp(cli);
  if (!metrics.ok()) return fail(metrics.status().ToString());

  for (const char* name :
       {obs::kSpanJob, obs::kSpanMapTask, obs::kSpanReduceTask,
        obs::kSpanShuffleFetch, obs::kSpanReduceBatch, obs::kSpanOutputWrite}) {
    bool found = false;
    for (const obs::Span& s : metrics->trace.spans) {
      if (std::strcmp(s.name, name) == 0) {
        found = true;
        break;
      }
    }
    if (!found) return fail(std::string("no span named ") + name);
  }
  for (const char* name :
       {obs::kHShuffleFetchRttUs, obs::kHShuffleQueueWaitUs,
        obs::kHReduceInvokeUs, obs::kHStoreFoldUs, obs::kHOutputWriteUs}) {
    auto it = metrics->histograms.find(name);
    if (it == metrics->histograms.end() || it->second.count() == 0) {
      return fail(std::string("missing/empty histogram ") + name);
    }
  }
  // RPC latency is recorded per transport (bmr_rpc_call_us{transport=...});
  // whichever transport carried the run must have samples.
  bool rpc_seen = false;
  for (const char* name : {obs::kHRpcCallInprocUs, obs::kHRpcCallTcpUs}) {
    auto it = metrics->histograms.find(name);
    if (it != metrics->histograms.end() && it->second.count() > 0) {
      rpc_seen = true;
    }
  }
  if (!rpc_seen) return fail("missing/empty bmr_rpc_call_us family");

  // Wire propagation (GUIDE §15): the run must contain handler spans,
  // and every one of them must stitch under a present parent — on the
  // TCP transport that parent crossed address spaces on the wire.
  {
    std::set<obs::SpanId> ids;
    for (const obs::Span& s : metrics->trace.spans) ids.insert(s.id);
    size_t handler_spans = 0;
    for (const obs::Span& s : metrics->trace.spans) {
      if (std::strcmp(s.name, obs::kSpanRpcHandler) != 0) continue;
      ++handler_spans;
      if (s.parent == 0) {
        return fail("rpc.handler span " + std::to_string(s.id) +
                    " has no parent (trace context not propagated)");
      }
      if (ids.count(s.parent) == 0) {
        return fail("rpc.handler span " + std::to_string(s.id) +
                    " is an orphan: parent " + std::to_string(s.parent) +
                    " never recorded");
      }
    }
    if (handler_spans == 0) return fail("no rpc.handler spans in the trace");
  }

  const std::string json = obs::PerfettoTraceJson(mr::BuildTraceLog(*metrics));
  // require_parents: a span whose parent id never appears is a bug,
  // not a vacuous pass, now that contexts propagate across the wire.
  Status st = obs::ValidatePerfettoJson(json, /*min_spans=*/10,
                                        /*require_parents=*/true);
  if (!st.ok()) return fail("trace json: " + st.ToString());
  const std::string prom =
      obs::PrometheusText(mr::BuildMetricsSnapshot(*metrics));
  st = obs::ValidatePrometheusText(prom);
  if (!st.ok()) return fail("prometheus text: " + st.ToString());
  if (prom.find(obs::kHShuffleFetchRttUs) == std::string::npos) {
    return fail("fetch RTT histogram missing from exposition");
  }
  if (prom.find(obs::kPromObsSpansDropped) == std::string::npos) {
    return fail("span-loss counter missing from exposition");
  }
  if (metrics->spans_dropped != 0) {
    return fail("tracer dropped " + std::to_string(metrics->spans_dropped) +
                " spans on a small run");
  }

  // Flight dump: the run above's own record, with a synthetic trigger,
  // written to a temp dir and checked by the --validate-flight code.
  {
    mr::JobMetrics flight = *metrics;
    flight.dump_reasons.push_back("check.synthetic_trigger");
    char dir[] = "/tmp/bmr_trace_flight_XXXXXX";
    if (mkdtemp(dir) == nullptr) return fail("cannot create a flight dir");
    StatusOr<std::string> path = mr::WriteFlightArtifact(flight, dir);
    size_t artifacts = 0;
    st = path.ok() ? ValidateFlightDir(dir, &artifacts) : path.status();
    if (path.ok()) std::remove(path->c_str());
    rmdir(dir);
    if (!st.ok()) return fail("flight dump: " + st.ToString());
  }

  // Same pipeline on a simulated run (no tracer — task-event lanes).
  mr::JobMetrics sim = RunSim(cli);
  const std::string sim_json = obs::PerfettoTraceJson(mr::BuildTraceLog(sim));
  st = obs::ValidatePerfettoJson(sim_json, /*min_spans=*/10);
  if (!st.ok()) return fail("sim trace json: " + st.ToString());
  st = obs::ValidatePrometheusText(
      obs::PrometheusText(mr::BuildMetricsSnapshot(sim)));
  if (!st.ok()) return fail("sim prometheus text: " + st.ToString());

  // Multi-tenant job service: run a small two-pool workload and
  // validate the per-pool bmr_service_* families through the same
  // Prometheus exposition.
  {
    auto spec = cluster::SmallCluster(2, 2, 2);
    spec.dfs_block_bytes = 64 << 10;
    auto cluster = mr::ClusterContext::Create(std::move(spec));
    workload::TextGenOptions gen;
    gen.total_bytes = 8 << 10;
    gen.num_files = 1;
    gen.vocabulary = 100;
    gen.seed = 3;
    auto files = workload::GenerateZipfText(cluster.get(), "/svc/in", gen);
    if (!files.ok()) return fail("service input: " + files.status().ToString());

    service::JobService svc(cluster.get());
    for (const char* pool : {"svc-a", "svc-b"}) {
      service::PoolConfig config;
      config.name = pool;
      if (Status add = svc.AddPool(config); !add.ok()) {
        return fail("service AddPool: " + add.ToString());
      }
    }
    std::vector<service::JobTicket> tickets;
    int run = 0;
    for (const char* pool : {"svc-a", "svc-a", "svc-b"}) {
      apps::AppOptions job;
      job.input_files = *files;
      job.num_reducers = 1;
      job.output_path = "/svc/out-" + std::to_string(run++);
      auto ticket = svc.Submit(pool, apps::MakeWordCountJob(job));
      if (!ticket.ok()) {
        return fail("service Submit: " + ticket.status().ToString());
      }
      tickets.push_back(*ticket);
    }
    for (const service::JobTicket& ticket : tickets) {
      service::JobOutcome outcome = svc.Wait(ticket);
      if (!outcome.status.ok()) {
        return fail("service job: " + outcome.status.ToString());
      }
    }
    const std::string service_prom = svc.PrometheusMetrics();
    st = obs::ValidatePrometheusText(service_prom);
    if (!st.ok()) return fail("service prometheus text: " + st.ToString());
    for (const char* series :
         {"bmr_service_jobs_completed_total{pool=\"svc-a\"} 2",
          "bmr_service_jobs_completed_total{pool=\"svc-b\"} 1",
          "bmr_service_jobs_submitted_total{pool=\"svc-a\"} 2",
          "bmr_service_job_latency_us_count{pool=\"svc-a\"}",
          "bmr_service_queue_wait_us_count{pool=\"svc-b\"}"}) {
      if (service_prom.find(series) == std::string::npos) {
        return fail(std::string("service series missing: ") + series);
      }
    }
  }

  if (EmitArtifacts(*metrics, cli, "check") != 0) return 1;
  std::printf("bmr_trace --check OK (%zu spans, %zu histograms)\n",
              metrics->trace.spans.size(), metrics->histograms.size());
  return 0;
}

/// --serve=N: stand up a job service with live introspection, run a
/// couple of traced jobs through it, and keep the HTTP endpoints up for
/// N seconds so an external scraper (the check.sh introspect leg) can
/// curl /metrics, /jobs, and /trace.
int RunServe(const CliOptions& cli) {
  auto spec = cluster::SmallCluster(2, 2, 2);
  spec.dfs_block_bytes = 16 << 10;
  auto cluster = mr::ClusterContext::Create(std::move(spec));

  workload::TextGenOptions gen;
  gen.total_bytes = static_cast<uint64_t>(cli.input_kb) << 10;
  gen.vocabulary = 200;
  gen.seed = 7;
  auto files = workload::GenerateZipfText(cluster.get(), "/serve/in", gen);
  if (!files.ok()) {
    std::fprintf(stderr, "bmr_trace --serve: input: %s\n",
                 files.status().ToString().c_str());
    return 1;
  }

  service::JobService svc(cluster.get());
  for (const char* pool : {"svc-a", "svc-b"}) {
    service::PoolConfig config;
    config.name = pool;
    if (Status st = svc.AddPool(config); !st.ok()) {
      std::fprintf(stderr, "bmr_trace --serve: AddPool: %s\n",
                   st.ToString().c_str());
      return 1;
    }
  }
  if (Status st = svc.ServeIntrospection(0); !st.ok()) {
    std::fprintf(stderr, "bmr_trace --serve: introspection: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  // The scraper greps this exact line to find the ephemeral port.
  std::printf("INTROSPECT PORT=%d\n", svc.introspect_port());
  std::fflush(stdout);

  std::vector<service::JobTicket> tickets;
  int run = 0;
  for (const char* pool : {"svc-a", "svc-a", "svc-b"}) {
    apps::AppOptions job;
    job.input_files = *files;
    job.num_reducers = cli.reducers;
    job.output_path = "/serve/out-" + std::to_string(run++);
    job.extra.SetBool("obs.trace", true);
    auto ticket = svc.Submit(pool, apps::MakeWordCountJob(job));
    if (!ticket.ok()) {
      std::fprintf(stderr, "bmr_trace --serve: Submit: %s\n",
                   ticket.status().ToString().c_str());
      return 1;
    }
    tickets.push_back(*ticket);
  }
  for (const service::JobTicket& ticket : tickets) {
    service::JobOutcome outcome = svc.Wait(ticket);
    if (!outcome.status.ok()) {
      std::fprintf(stderr, "bmr_trace --serve: job: %s\n",
                   outcome.status.ToString().c_str());
      return 1;
    }
  }
  std::printf("SERVE JOBS DONE\n");
  std::fflush(stdout);

  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::seconds(cli.serve_seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return 0;
}

/// File-based validation modes: re-run the structural validators over
/// artifacts scraped off a live server or dumped at a job's end, from
/// a separate process (check.sh / chaos.sh).
int RunValidateFile(const std::string& path, const char* kind) {
  StatusOr<std::string> text = ReadFileText(path);
  Status st = text.status();
  if (st.ok()) {
    if (std::strcmp(kind, "trace") == 0) {
      st = obs::ValidatePerfettoJson(*text, /*min_spans=*/1);
    } else if (std::strcmp(kind, "prom") == 0) {
      st = obs::ValidatePrometheusText(*text);
    } else {
      st = obs::ValidateJsonText(*text);
    }
  }
  if (!st.ok()) {
    std::fprintf(stderr, "bmr_trace --validate-%s FAILED: %s: %s\n", kind,
                 path.c_str(), st.ToString().c_str());
    return 1;
  }
  std::printf("bmr_trace --validate-%s OK: %s\n", kind, path.c_str());
  return 0;
}

/// --validate-flight=DIR: ValidateFlightDir as a command.
int RunValidateFlight(const std::string& dir) {
  size_t artifacts = 0;
  Status st = ValidateFlightDir(dir, &artifacts);
  if (!st.ok()) {
    std::fprintf(stderr, "bmr_trace --validate-flight FAILED: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  std::printf("bmr_trace --validate-flight OK: %zu artifact%s in %s\n",
              artifacts, artifacts == 1 ? "" : "s", dir.c_str());
  return 0;
}

int Main(int argc, char** argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "app", &cli.app) ||
        ParseFlag(argv[i], "mode", &cli.mode) ||
        ParseFlag(argv[i], "store", &cli.store) ||
        ParseFlag(argv[i], "trace-out", &cli.trace_out) ||
        ParseFlag(argv[i], "prom-out", &cli.prom_out)) {
      continue;
    }
    if (ParseFlag(argv[i], "reducers", &value)) {
      cli.reducers = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "input-kb", &value)) {
      cli.input_kb = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "sim-gb", &value)) {
      cli.sim_gb = std::atof(value.c_str());
    } else if (ParseFlag(argv[i], "serve", &value)) {
      cli.serve_seconds = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "validate-trace", &cli.validate_trace) ||
               ParseFlag(argv[i], "validate-prom", &cli.validate_prom) ||
               ParseFlag(argv[i], "validate-json", &cli.validate_json) ||
               ParseFlag(argv[i], "validate-flight", &cli.validate_flight)) {
      continue;
    } else if (std::strcmp(argv[i], "--sim") == 0) {
      cli.sim = true;
    } else if (std::strcmp(argv[i], "--report") == 0) {
      cli.report = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      cli.check = true;
    } else if (std::strcmp(argv[i], "--stragglers") == 0) {
      cli.stragglers = true;
    } else {
      return Usage();
    }
  }
  // Validation modes need no cluster; they run against files on disk.
  if (!cli.validate_trace.empty()) {
    return RunValidateFile(cli.validate_trace, "trace");
  }
  if (!cli.validate_prom.empty()) {
    return RunValidateFile(cli.validate_prom, "prom");
  }
  if (!cli.validate_json.empty()) {
    return RunValidateFile(cli.validate_json, "json");
  }
  if (!cli.validate_flight.empty()) return RunValidateFlight(cli.validate_flight);
  if (cli.serve_seconds > 0) return RunServe(cli);
  if (cli.check) return RunCheck(cli);
  if (cli.sim) return EmitArtifacts(RunSim(cli), cli, "sim");

  StatusOr<mr::JobMetrics> metrics = RunTracedApp(cli);
  if (!metrics.ok()) {
    std::fprintf(stderr, "bmr_trace: %s\n", metrics.status().ToString().c_str());
    return 1;
  }
  return EmitArtifacts(*metrics, cli, cli.app.c_str());
}

}  // namespace
}  // namespace bmr

int main(int argc, char** argv) { return bmr::Main(argc, argv); }
