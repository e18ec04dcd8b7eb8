// Observability subsystem tests: tracer mechanics, exporter output and
// self-validation, engine integration (nested spans + latency
// histograms from a traced run), the simulator flowing through the
// same exporters, fault counters surfacing in the Prometheus
// exposition, and golden text for the human-facing reports.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "apps/registry.h"
#include "apps/wordcount.h"
#include "cluster/cluster.h"
#include "faults/fault_injector.h"
#include "mr/engine.h"
#include "mr/metrics.h"
#include "mr/obs_export.h"
#include "mr/timeline.h"
#include "obs/export.h"
#include "obs/http_introspect.h"
#include "obs/metric_names.h"
#include "obs/trace.h"
#include "obs/validate.h"
#include "service/job_service.h"
#include "simmr/hadoop_sim.h"
#include "simmr/profiles.h"
#include "test_util.h"
#include "workload/generators.h"

namespace bmr {
namespace {

using testutil::MakeTestCluster;

// ---- Tracer -----------------------------------------------------------

TEST(Tracer, DisabledTracerRecordsNothing) {
  obs::Tracer tracer;  // never enabled
  {
    obs::ScopedSpan span(&tracer, "noop", "test");
    EXPECT_EQ(span.id(), 0u);
    EXPECT_EQ(obs::CurrentSpan(), 0u);
    obs::LatencyTimer timer(&tracer, obs::kHStoreFoldUs);
  }
  tracer.RecordLatency(obs::kHStoreFoldUs, 5);
  EXPECT_TRUE(tracer.CollectTrace().spans.empty());
  EXPECT_TRUE(tracer.SnapshotHistograms().empty());

  // Null tracer: the instrumented call sites pass nullptr freely.
  obs::ScopedSpan null_span(nullptr, "noop", "test");
  obs::LatencyTimer null_timer(nullptr, obs::kHStoreFoldUs);
  EXPECT_EQ(null_span.id(), 0u);
}

TEST(Tracer, NestedSpansParentImplicitly) {
  obs::Tracer tracer;
  tracer.Enable();
  tracer.RestartClock();
  obs::SpanId root = tracer.NextSpanId();
  tracer.SetRootSpan(root);

  obs::SpanId outer_id;
  obs::SpanId inner_id;
  {
    obs::ScopedSpan outer(&tracer, "outer", "test");
    outer_id = outer.id();
    EXPECT_EQ(obs::CurrentSpan(), outer_id);
    {
      obs::ScopedSpan inner(&tracer, "inner", "test", /*arg=*/7);
      inner_id = inner.id();
      EXPECT_EQ(obs::CurrentSpan(), inner_id);
    }
    EXPECT_EQ(obs::CurrentSpan(), outer_id);
  }
  EXPECT_EQ(obs::CurrentSpan(), 0u);

  obs::TraceLog log = tracer.CollectTrace();
  ASSERT_EQ(log.spans.size(), 2u);
  std::set<obs::SpanId> ids;
  for (const obs::Span& s : log.spans) {
    ids.insert(s.id);
    EXPECT_NE(s.id, 0u);
    EXPECT_GE(s.end_s, s.start_s);
    if (std::strcmp(s.name, "outer") == 0) {
      // No enclosing span on this thread: parents to the job root.
      EXPECT_EQ(s.parent, root);
    } else {
      EXPECT_EQ(s.parent, outer_id);
      EXPECT_EQ(s.arg, 7);
    }
  }
  EXPECT_EQ(ids.size(), 2u) << "span ids must be unique";
  EXPECT_EQ(ids.count(root), 0u) << "root id is reserved for the job span";
  EXPECT_TRUE(ids.count(inner_id) == 1);

  // CollectTrace is repeatable: spans accumulate, nothing is lost.
  EXPECT_EQ(tracer.CollectTrace().spans.size(), 2u);
}

TEST(Tracer, ThreadsGetDistinctLanesAndExplicitParents) {
  obs::Tracer tracer;
  tracer.Enable(obs::TracerOptions{/*buffer_spans=*/2});  // force flushes
  tracer.RestartClock();

  obs::SpanId parent_id;
  {
    obs::ScopedSpan parent(&tracer, "parent", "test");
    parent_id = parent.id();
    std::vector<std::thread> threads;
    for (int i = 0; i < 3; ++i) {
      threads.emplace_back([&tracer, parent_id, i] {
        for (int k = 0; k < 5; ++k) {
          // Worker threads have no open span: causality crosses the
          // thread boundary via the explicit parent id.
          obs::ScopedSpan child(&tracer, "child", "test", i, parent_id);
        }
      });
    }
    for (auto& t : threads) t.join();
  }

  obs::TraceLog log = tracer.CollectTrace();
  ASSERT_EQ(log.spans.size(), 16u);
  std::set<int> child_tids;
  for (const obs::Span& s : log.spans) {
    if (std::strcmp(s.name, "child") == 0) {
      EXPECT_EQ(s.parent, parent_id);
      child_tids.insert(s.tid);
    }
  }
  EXPECT_EQ(child_tids.size(), 3u) << "one trace lane per thread";
  EXPECT_EQ(log.tracks.size(), 4u);  // main thread + 3 workers
}

TEST(Tracer, LatencyHistogramsAccumulateAndMerge) {
  obs::Tracer tracer;
  tracer.Enable();
  tracer.RecordLatency(obs::kHStoreFoldUs, 3);
  tracer.RecordLatency(obs::kHStoreFoldUs, 100);

  LogHistogram local;
  local.Add(7);
  local.Add(9);
  tracer.MergeHistogram(obs::kHStoreFoldUs, local);
  tracer.MergeHistogram(obs::kHStoreSpillUs, LogHistogram());  // empty: no-op

  auto histograms = tracer.SnapshotHistograms();
  ASSERT_EQ(histograms.size(), 1u);
  const LogHistogram& h = histograms.at(obs::kHStoreFoldUs);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 119u);
  EXPECT_EQ(h.min(), 3u);
  EXPECT_EQ(h.max(), 100u);
}

// Wire trace-context (GUIDE §15): what an outgoing RPC carries, and
// what the receiving side accepts as a cross-node parent.
TEST(Tracer, CurrentContextAndPropagatedParent) {
  obs::Tracer tracer;
  // Disabled: nothing goes on the wire.
  EXPECT_FALSE(tracer.CurrentContext().valid());

  tracer.Enable();
  tracer.RestartClock();
  obs::SpanId root = tracer.NextSpanId();
  tracer.SetRootSpan(root);

  // No open span: context falls back to the job root.
  obs::TraceContext at_root = tracer.CurrentContext();
  EXPECT_TRUE(at_root.valid());
  EXPECT_EQ(at_root.trace_id, tracer.trace_id());
  EXPECT_EQ(at_root.parent_span, root);
  EXPECT_EQ(at_root.flags & obs::kTraceFlagSampled, obs::kTraceFlagSampled);

  obs::TraceContext inside;
  obs::SpanId span_id;
  {
    obs::ScopedSpan span(&tracer, "caller", "test");
    span_id = span.id();
    inside = tracer.CurrentContext();
  }
  EXPECT_EQ(inside.parent_span, span_id);

  // Accepting side: same generation stitches, anything else falls
  // back to 0 (ScopedSpan then parents locally — never an orphan).
  EXPECT_EQ(tracer.PropagatedParent(inside), span_id);
  EXPECT_EQ(tracer.PropagatedParent(obs::TraceContext{}), 0u);
  obs::TraceContext foreign = inside;
  foreign.trace_id = inside.trace_id + 1;  // a different tracer's id
  EXPECT_EQ(tracer.PropagatedParent(foreign), 0u);

  obs::Tracer disabled;
  EXPECT_EQ(disabled.PropagatedParent(inside), 0u);
}

// Two tracers in one process never share a trace id — a stale context
// from job A cannot stitch into job B's tree.
TEST(Tracer, TraceIdsAreProcessUnique) {
  obs::Tracer a, b;
  EXPECT_NE(a.trace_id(), 0u);
  EXPECT_NE(b.trace_id(), 0u);
  EXPECT_NE(a.trace_id(), b.trace_id());
}

// The central log is bounded: overflow is dropped and counted, never
// an allocation runaway and never silent.
TEST(Tracer, CentralCapDropsAndCountsSpans) {
  obs::Tracer tracer;
  tracer.Enable(obs::TracerOptions{/*buffer_spans=*/2, /*max_spans=*/10});
  tracer.RestartClock();
  for (int i = 0; i < 50; ++i) {
    obs::ScopedSpan span(&tracer, "burst", "test", i);
  }
  obs::TraceLog log = tracer.CollectTrace();
  EXPECT_LE(log.spans.size(), 10u);
  EXPECT_EQ(tracer.dropped_spans() + log.spans.size(), 50u);
  EXPECT_GT(tracer.dropped_spans(), 0u);
}

// The drop counter reaches the exposition as
// bmr_obs_spans_dropped_total whenever tracing was on (a zero is a
// healthy signal, not noise).
TEST(Tracer, DroppedSpansReachTheExposition) {
  mr::JobMetrics m;
  m.trace_enabled = true;
  m.spans_dropped = 7;
  std::string prom = obs::PrometheusText(mr::BuildMetricsSnapshot(m));
  EXPECT_NE(prom.find(std::string(obs::kPromObsSpansDropped) + " 7"),
            std::string::npos);
  ASSERT_TRUE(obs::ValidatePrometheusText(prom).ok());

  m.spans_dropped = 0;
  prom = obs::PrometheusText(mr::BuildMetricsSnapshot(m));
  EXPECT_NE(prom.find(obs::kPromObsSpansDropped), std::string::npos);

  m.trace_enabled = false;
  prom = obs::PrometheusText(mr::BuildMetricsSnapshot(m));
  EXPECT_EQ(prom.find(obs::kPromObsSpansDropped), std::string::npos);
}

// ---- Exporters and validators -----------------------------------------

obs::TraceLog MakeSyntheticTrace() {
  obs::TraceLog log;
  log.spans.push_back(
      {/*id=*/1, /*parent=*/0, "job", "job", 1, 0, -1, 0.0, 1.0});
  log.spans.push_back(
      {/*id=*/2, /*parent=*/1, "task.map", "task", 1, 0, 3, 0.1, 0.4});
  log.spans.push_back(
      {/*id=*/3, /*parent=*/2, "shuffle.fetch", "shuffle", 1, 1, 3, 0.2, 0.3});
  log.tracks.push_back({1, 0, "worker-0"});
  log.tracks.push_back({1, 1, "worker-1"});
  log.counters.push_back({"heap_bytes_r0", 1, 0, 0.5, 4096.0});
  return log;
}

TEST(Exporters, PerfettoJsonRoundTripsThroughValidator) {
  const std::string json = obs::PerfettoTraceJson(MakeSyntheticTrace());
  Status st = obs::ValidatePerfettoJson(json, /*min_spans=*/3);
  EXPECT_TRUE(st.ok()) << st;
  // Spot-check the Chrome trace_event shape the validator abstracts.
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"shuffle.fetch\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
}

TEST(Exporters, ValidatorRejectsMalformedTraces) {
  EXPECT_FALSE(obs::ValidatePerfettoJson("not json at all").ok());
  EXPECT_FALSE(obs::ValidatePerfettoJson("{\"traceEvents\":{}}").ok());
  // ts must be monotonic non-decreasing across "X" events.
  EXPECT_FALSE(
      obs::ValidatePerfettoJson(
          "{\"traceEvents\":["
          "{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":5.0,\"dur\":1.0,"
          "\"name\":\"a\",\"args\":{\"span\":1,\"parent\":0}},"
          "{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":2.0,\"dur\":1.0,"
          "\"name\":\"b\",\"args\":{\"span\":2,\"parent\":0}}]}")
          .ok());
  // A child span leaking outside its parent's interval is a causality
  // bug the validator must catch.
  obs::TraceLog bad = MakeSyntheticTrace();
  bad.spans[2].end_s = 2.0;  // fetch outlives the whole job
  EXPECT_FALSE(obs::ValidatePerfettoJson(obs::PerfettoTraceJson(bad)).ok());
  // min_spans guards against silently-empty traces.
  EXPECT_FALSE(
      obs::ValidatePerfettoJson(obs::PerfettoTraceJson(MakeSyntheticTrace()),
                                /*min_spans=*/100)
          .ok());
}

// Orphan detection (satellite of GUIDE §15): a span naming a parent
// that never appears is tolerated by default (partial snapshots) but
// an error under require_parents — the mode `bmr_trace --check` uses
// on complete single-job traces.
TEST(Exporters, ValidatorFlagsOrphanSpansWhenStrict) {
  obs::TraceLog log = MakeSyntheticTrace();
  log.spans.push_back({/*id=*/9, /*parent=*/777, "task.reduce", "task", 1, 1,
                       0, 0.5, 0.6});  // parent 777 exists nowhere
  const std::string json = obs::PerfettoTraceJson(log);
  EXPECT_TRUE(obs::ValidatePerfettoJson(json).ok());
  Status st = obs::ValidatePerfettoJson(json, /*min_spans=*/0,
                                        /*require_parents=*/true);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("orphan"), std::string::npos) << st;
  // A fully stitched tree passes strict validation.
  EXPECT_TRUE(obs::ValidatePerfettoJson(
                  obs::PerfettoTraceJson(MakeSyntheticTrace()),
                  /*min_spans=*/0, /*require_parents=*/true)
                  .ok());
}

TEST(Exporters, JsonTextValidatorAcceptsDocumentsRejectsGarbage) {
  EXPECT_TRUE(obs::ValidateJsonText("{\"pools\":[{\"queued\":0}]}").ok());
  EXPECT_TRUE(obs::ValidateJsonText("[]").ok());
  EXPECT_FALSE(obs::ValidateJsonText("{\"pools\":[").ok());
  EXPECT_FALSE(obs::ValidateJsonText("").ok());
}

TEST(Exporters, PrometheusTextExposesAllFamilies) {
  obs::MetricsSnapshot snap;
  snap.counters["map_input_records"] = 1744;
  snap.counters["fault_injected_fetch_timeout"] = 2;
  snap.gauges[obs::kPromJobElapsedSeconds] = 1.25;
  LogHistogram h;
  h.Add(0);
  h.Add(3);
  h.Add(100);
  snap.histograms[obs::kHShuffleFetchRttUs] = h;

  const std::string text = obs::PrometheusText(snap);
  Status st = obs::ValidatePrometheusText(text);
  EXPECT_TRUE(st.ok()) << st << "\n" << text;
  EXPECT_NE(text.find("bmr_job_map_input_records_total 1744"),
            std::string::npos);
  EXPECT_NE(text.find("bmr_faults_injected_total{kind=\"fetch_timeout\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("bmr_job_elapsed_seconds 1.250000"), std::string::npos);
  EXPECT_NE(text.find("bmr_shuffle_fetch_rtt_us_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("bmr_shuffle_fetch_rtt_us_sum 103"), std::string::npos);
  EXPECT_NE(text.find("bmr_shuffle_fetch_rtt_us_count 3"), std::string::npos);
}

// Histograms registered with a label set (the per-transport RPC
// latency families) re-attach their labels to every series, keep `le`
// last, and validate as independent families.
TEST(Exporters, LabeledHistogramsRoundTripThroughValidator) {
  obs::MetricsSnapshot snap;
  LogHistogram inproc;
  inproc.Add(2);
  inproc.Add(40);
  snap.histograms[obs::kHRpcCallInprocUs] = inproc;
  LogHistogram tcp;
  tcp.Add(900);
  snap.histograms[obs::kHRpcCallTcpUs] = tcp;

  const std::string text = obs::PrometheusText(snap);
  Status st = obs::ValidatePrometheusText(text);
  EXPECT_TRUE(st.ok()) << st << "\n" << text;
  EXPECT_NE(
      text.find("bmr_rpc_call_us_bucket{transport=\"inproc\",le=\"+Inf\"} 2"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("bmr_rpc_call_us_sum{transport=\"inproc\"} 42"),
            std::string::npos);
  EXPECT_NE(text.find("bmr_rpc_call_us_count{transport=\"tcp\"} 1"),
            std::string::npos);
  // The label never leaks into the family name itself.
  EXPECT_EQ(text.find("bmr_rpc_call_us{"), std::string::npos);
}

TEST(Exporters, PrometheusValidatorEnforcesNamingAndCoherence) {
  // Off-convention family name (no bmr_ prefix).
  EXPECT_FALSE(obs::ValidatePrometheusText("my_metric_total 1\n").ok());
  // Missing unit suffix.
  EXPECT_FALSE(obs::ValidatePrometheusText("bmr_job_stuff 1\n").ok());
  // Histogram whose cumulative buckets decrease.
  EXPECT_FALSE(obs::ValidatePrometheusText(
                   "bmr_store_fold_us_bucket{le=\"1\"} 5\n"
                   "bmr_store_fold_us_bucket{le=\"3\"} 2\n"
                   "bmr_store_fold_us_bucket{le=\"+Inf\"} 5\n"
                   "bmr_store_fold_us_sum 9\n"
                   "bmr_store_fold_us_count 5\n")
                   .ok());
  // +Inf bucket disagreeing with _count.
  EXPECT_FALSE(obs::ValidatePrometheusText(
                   "bmr_store_fold_us_bucket{le=\"+Inf\"} 4\n"
                   "bmr_store_fold_us_sum 9\n"
                   "bmr_store_fold_us_count 5\n")
                   .ok());
}

// ---- Flight dumps -----------------------------------------------------

/// Perfetto events of `json` that count toward a flight view's budget:
/// spans, counter samples and instants (metadata excluded).
size_t CountTraceEvents(const std::string& json) {
  size_t n = 0;
  for (const char* ph : {"\"ph\":\"X\"", "\"ph\":\"C\"", "\"ph\":\"i\""}) {
    for (size_t pos = json.find(ph); pos != std::string::npos;
         pos = json.find(ph, pos + 1)) {
      ++n;
    }
  }
  return n;
}

TEST(FlightDump, RequestStaysInTheRegistryThatMadeIt) {
  mr::MetricsRegistry asked;
  mr::MetricsRegistry other;
  asked.RecordEvent(mr::Phase::kMap, 0, 1, 0.0, 0.1);
  other.RecordEvent(mr::Phase::kMap, 0, 1, 0.0, 0.1);
  asked.RequestDump("reduce.restart task=2: tainted");

  mr::JobMetrics a = asked.Snapshot();
  mr::JobMetrics b = other.Snapshot();
  EXPECT_EQ(a.dump_reasons,
            std::vector<std::string>{"reduce.restart task=2: tainted"});
  EXPECT_TRUE(b.dump_reasons.empty());
  const std::string json = mr::FlightTraceJson(a, mr::kFlightEvents);
  EXPECT_TRUE(obs::ValidatePerfettoJson(json, /*min_spans=*/1).ok()) << json;
  EXPECT_NE(json.find(obs::kFlightTriggerCategory), std::string::npos);
  EXPECT_NE(json.find("reduce.restart task=2"), std::string::npos);
  EXPECT_EQ(mr::FlightTraceJson(b, mr::kFlightEvents)
                .find(obs::kFlightTriggerCategory),
            std::string::npos);
}

TEST(FlightDump, ViewKeepsTheLastEventsAndEveryTrigger) {
  mr::JobMetrics m;
  for (int i = 0; i < 10; ++i) {
    m.events.push_back({mr::Phase::kMap, i, 1, i * 0.1, i * 0.1 + 0.05});
  }
  m.events.push_back({mr::Phase::kRecovery, 3, 2, 0.95, 0.95});
  m.memory_samples.push_back({0.02, 0, 100});
  m.dump_reasons = {"fault.node_crash node=2"};
  m.elapsed_seconds = 1.0;

  const std::string all = mr::FlightTraceJson(m, 0);
  EXPECT_EQ(CountTraceEvents(all), 13u);
  const std::string last = mr::FlightTraceJson(m, 4);
  Status st = obs::ValidatePerfettoJson(last, /*min_spans=*/1);
  EXPECT_TRUE(st.ok()) << st << "\n" << last;
  EXPECT_EQ(CountTraceEvents(last), 4u) << last;
  // The trigger and the three latest task events survive the cut; the
  // early map tasks and the heap sample do not.
  EXPECT_NE(last.find("fault.node_crash node=2"), std::string::npos);
  EXPECT_NE(last.find("\"name\":\"Recovery\""), std::string::npos);
  EXPECT_NE(last.find("\"id\":9"), std::string::npos);
  EXPECT_NE(last.find("\"id\":8"), std::string::npos);
  EXPECT_EQ(last.find("\"id\":7"), std::string::npos);
  EXPECT_EQ(last.find("heap_bytes_r0"), std::string::npos);
}

// ---- Live introspection HTTP server ------------------------------------

/// Blocking one-shot HTTP/1.0 client against 127.0.0.1:`port`.
std::string HttpGet(int port, const std::string& target) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::string req = "GET " + target + " HTTP/1.0\r\n\r\n";
  EXPECT_EQ(::send(fd, req.data(), req.size(), 0),
            static_cast<ssize_t>(req.size()));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) response.append(buf, n);
  ::close(fd);
  return response;
}

TEST(HttpIntrospect, ServesRegisteredPathsAndQueryStrings) {
  auto server = obs::HttpIntrospectServer::Create(0);
  ASSERT_TRUE(server.ok()) << server.status();
  ASSERT_GT((*server)->port(), 0);
  (*server)->Handle("/ping", "text/plain",
                    [](const std::string& query) { return "pong:" + query; });

  std::string response = HttpGet((*server)->port(), "/ping");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("Content-Type: text/plain"), std::string::npos);
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  EXPECT_NE(response.find("pong:"), std::string::npos);

  // The query string (text after '?') reaches the handler.
  response = HttpGet((*server)->port(), "/ping?last=25");
  EXPECT_NE(response.find("pong:last=25"), std::string::npos) << response;

  // Unregistered path and non-GET method are rejected, not crashed.
  EXPECT_NE(HttpGet((*server)->port(), "/nope").find("404"),
            std::string::npos);
}

TEST(HttpIntrospect, SequentialScrapesAndCleanShutdown) {
  int port = 0;
  {
    auto server = obs::HttpIntrospectServer::Create(0);
    ASSERT_TRUE(server.ok()) << server.status();
    port = (*server)->port();
    (*server)->Handle("/n", "text/plain",
                      [](const std::string&) { return "ok"; });
    for (int i = 0; i < 8; ++i) {
      EXPECT_NE(HttpGet(port, "/n").find("ok"), std::string::npos);
    }
  }
  // After destruction the port no longer accepts connections.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_NE(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ::close(fd);
}

// /trace?last=N serves the most recently finished job's own record:
// a valid Perfetto document within the event budget, with that job's
// task-phase spans.
TEST(HttpIntrospect, JobServiceTraceServesTheLastFinishedJob) {
  auto cluster = MakeTestCluster(/*slaves=*/2, /*block_bytes=*/8 << 10);
  workload::TextGenOptions gen;
  gen.total_bytes = 32 << 10;
  gen.vocabulary = 200;
  auto files = workload::GenerateZipfText(cluster.get(), "/trace-in", gen);
  ASSERT_TRUE(files.ok()) << files.status();
  service::JobService svc(cluster.get());
  service::PoolConfig pool;
  pool.name = "p";
  ASSERT_TRUE(svc.AddPool(pool).ok());
  ASSERT_TRUE(svc.ServeIntrospection(0).ok());
  auto body = [&](const std::string& target) {
    std::string response = HttpGet(svc.introspect_port(), target);
    size_t start = response.find("\r\n\r\n");
    return start == std::string::npos ? response : response.substr(start + 4);
  };

  // Nothing has finished yet: an empty, still valid document.
  std::string json = body("/trace?last=50");
  EXPECT_TRUE(obs::ValidatePerfettoJson(json).ok()) << json;
  EXPECT_EQ(CountTraceEvents(json), 0u);

  apps::AppOptions options;
  options.input_files = *files;
  options.output_path = "/trace-out";
  options.num_reducers = 2;
  auto ticket = svc.Submit("p", apps::MakeWordCountJob(options));
  ASSERT_TRUE(ticket.ok()) << ticket.status();
  service::JobOutcome outcome = svc.Wait(*ticket);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status;
  ASSERT_GT(outcome.result.events.size(), 4u);

  for (size_t last : {4u, 50u}) {
    json = body("/trace?last=" + std::to_string(last));
    Status st = obs::ValidatePerfettoJson(json, /*min_spans=*/1);
    EXPECT_TRUE(st.ok()) << st << "\n" << json;
    EXPECT_LE(CountTraceEvents(json), last) << json;
    EXPECT_NE(json.find("\"cat\":\"task\""), std::string::npos) << json;
  }
  json = body("/trace");
  EXPECT_GE(CountTraceEvents(json), outcome.result.events.size());
}

// ---- Engine integration ------------------------------------------------

mr::JobResult RunWordCount(mr::ClusterContext* cluster, bool traced,
                           const std::string& output_path) {
  workload::TextGenOptions gen;
  gen.total_bytes = 48 << 10;
  gen.vocabulary = 200;
  gen.seed = 77;
  auto files = workload::GenerateZipfText(cluster, output_path + "-in", gen);
  EXPECT_TRUE(files.ok()) << files.status();

  apps::AppOptions options;
  options.input_files = *files;
  options.output_path = output_path;
  options.num_reducers = 2;
  options.barrierless = true;
  if (traced) options.extra.SetBool("obs.trace", true);
  mr::JobRunner runner(cluster);
  return runner.Run(apps::FindApp("wordcount")->make_job(options));
}

TEST(EngineTracing, TracedRunProducesNestedSpansAndHistograms) {
  auto cluster = MakeTestCluster(/*slaves=*/3, /*block_bytes=*/8 << 10);
  mr::JobResult result = RunWordCount(cluster.get(), /*traced=*/true, "/out");
  ASSERT_TRUE(result.ok()) << result.status;
  ASSERT_TRUE(result.trace_enabled);

  obs::SpanId job_id = 0;
  std::set<obs::SpanId> map_ids;
  std::set<obs::SpanId> reduce_ids;
  for (const obs::Span& s : result.trace.spans) {
    if (std::strcmp(s.name, obs::kSpanJob) == 0) {
      EXPECT_EQ(job_id, 0u) << "exactly one job span";
      EXPECT_EQ(s.parent, 0u);
      job_id = s.id;
    } else if (std::strcmp(s.name, obs::kSpanMapTask) == 0) {
      map_ids.insert(s.id);
    } else if (std::strcmp(s.name, obs::kSpanReduceTask) == 0) {
      reduce_ids.insert(s.id);
    }
  }
  ASSERT_NE(job_id, 0u);
  EXPECT_GE(map_ids.size(), 2u) << "small blocks => several map tasks";
  EXPECT_EQ(reduce_ids.size(), 2u);

  size_t fetches = 0;
  for (const obs::Span& s : result.trace.spans) {
    if (std::strcmp(s.name, obs::kSpanMapTask) == 0 ||
        std::strcmp(s.name, obs::kSpanReduceTask) == 0) {
      EXPECT_EQ(s.parent, job_id) << "task spans hang off the job span";
    } else if (std::strcmp(s.name, obs::kSpanShuffleFetch) == 0) {
      ++fetches;
      EXPECT_TRUE(reduce_ids.count(s.parent) == 1)
          << "fetch spans carry cross-thread causality to their reduce task";
    }
  }
  EXPECT_GT(fetches, 0u);

  for (const char* name :
       {obs::kHShuffleFetchRttUs, obs::kHShuffleQueueWaitUs,
        obs::kHReduceInvokeUs, obs::kHStoreFoldUs, obs::kHRpcCallInprocUs,
        obs::kHOutputWriteUs}) {
    auto it = result.histograms.find(name);
    ASSERT_NE(it, result.histograms.end()) << name;
    EXPECT_GT(it->second.count(), 0u) << name;
  }

  // The full artifact path (serialize -> self-validate -> write).
  std::string dir = ::testing::TempDir();
  Status st = mr::WriteTraceArtifacts(result, dir + "/obs_trace.json",
                                      dir + "/obs_metrics.prom");
  EXPECT_TRUE(st.ok()) << st;
}

// Tentpole assertion at the engine level: every rpc.handler span in a
// traced run stitches under a present parent — the propagated trace
// context, not an orphan and not a local guess.
TEST(EngineTracing, HandlerSpansStitchUnderPropagatedParents) {
  auto cluster = MakeTestCluster(/*slaves=*/3, /*block_bytes=*/8 << 10);
  mr::JobResult result = RunWordCount(cluster.get(), /*traced=*/true, "/out");
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(result.spans_dropped, 0u);

  std::set<obs::SpanId> ids;
  for (const obs::Span& s : result.trace.spans) ids.insert(s.id);
  size_t handlers = 0;
  for (const obs::Span& s : result.trace.spans) {
    if (std::strcmp(s.name, obs::kSpanRpcHandler) != 0) continue;
    ++handlers;
    ASSERT_NE(s.parent, 0u) << "handler span without propagated context";
    EXPECT_EQ(ids.count(s.parent), 1u) << "orphan handler span";
  }
  EXPECT_GT(handlers, 0u);

  // The stitched tree passes the strict (orphan-rejecting) validator.
  const std::string json =
      obs::PerfettoTraceJson(mr::BuildTraceLog(result));
  Status st = obs::ValidatePerfettoJson(json, /*min_spans=*/10,
                                        /*require_parents=*/true);
  EXPECT_TRUE(st.ok()) << st;
}

/// A barrier-less wordcount that loses node 2 mid-job and recovers,
/// with flight artifacts going to `flight_dir`.
mr::JobResult RunCrashedWordCount(const std::string& flight_dir) {
  auto cluster = MakeTestCluster(/*slaves=*/4, /*block_bytes=*/8 << 10);
  workload::TextGenOptions gen;
  gen.total_bytes = 48 << 10;
  gen.vocabulary = 200;
  gen.seed = 77;
  auto files = workload::GenerateZipfText(cluster.get(), "/flight-in", gen);
  EXPECT_TRUE(files.ok()) << files.status();

  faults::FaultEvent crash;
  crash.kind = faults::FaultKind::kNodeCrash;
  crash.node = 2;
  crash.after_calls = 30;
  faults::FaultPlan plan;
  plan.events = {crash};
  faults::FaultInjector injector(plan);
  cluster->InstallFaultInjector(&injector);

  apps::AppOptions options;
  options.input_files = *files;
  options.output_path = "/flight-out";
  options.num_reducers = 2;
  options.barrierless = true;
  options.extra.Set("obs.flight_dir", flight_dir);
  mr::JobRunner runner(cluster.get());
  mr::JobResult result =
      runner.Run(apps::FindApp("wordcount")->make_job(options));
  cluster->InstallFaultInjector(nullptr);
  EXPECT_EQ(injector.injected(faults::FaultKind::kNodeCrash), 1u);
  return result;
}

/// The flight_* artifacts in `dir`, read and then removed with it.
std::vector<std::string> TakeFlightArtifacts(const std::string& dir) {
  std::vector<std::string> artifacts;
  DIR* d = opendir(dir.c_str());
  EXPECT_NE(d, nullptr) << dir;
  if (d == nullptr) return artifacts;
  while (dirent* entry = readdir(d)) {
    std::string name = entry->d_name;
    if (name.find("flight_") != 0) continue;
    const std::string path = dir + "/" + name;
    std::ifstream in(path);
    artifacts.emplace_back(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
    std::remove(path.c_str());
  }
  closedir(d);
  rmdir(dir.c_str());
  return artifacts;
}

// Flight dump, end to end: a node-crash fault mid-job asks for a dump,
// and the engine writes the job's own record, validated, into
// obs.flight_dir at the job boundary.
TEST(EngineTracing, NodeCrashLeavesValidatedFlightArtifact) {
  char tmpl[] = "/tmp/bmr_flight_engine_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  mr::JobResult result = RunCrashedWordCount(tmpl);
  ASSERT_TRUE(result.ok()) << result.status;  // recovery still succeeds
  EXPECT_EQ(result.flight_dumps, 1u);

  // Exactly the artifact the chaos harness validates: Perfetto JSON
  // carrying the trigger that names the crash, over the crashed job's
  // task lanes.
  std::vector<std::string> artifacts = TakeFlightArtifacts(tmpl);
  ASSERT_EQ(artifacts.size(), 1u);
  const std::string& json = artifacts[0];
  EXPECT_TRUE(obs::ValidatePerfettoJson(json, /*min_spans=*/1).ok());
  EXPECT_NE(json.find(obs::kFlightTriggerCategory), std::string::npos);
  EXPECT_NE(json.find("fault.node_crash"), std::string::npos);
  for (mr::Phase phase : {mr::Phase::kMap, mr::Phase::kShuffleReduce,
                          mr::Phase::kOutput}) {
    EXPECT_NE(json.find(std::string("\"name\":\"") + mr::PhaseName(phase) +
                        "\",\"cat\":\"task\""),
              std::string::npos)
        << mr::PhaseName(phase) << " task span missing";
  }
}

TEST(EngineTracing, UnwritableFlightDirLeavesTheJobOk) {
  mr::JobResult result = RunCrashedWordCount("/nonexistent/bmr-flight");
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_FALSE(result.dump_reasons.empty());
  EXPECT_EQ(result.flight_dumps, 0u);
}

// Two jobs at once on one service: the one that fails writes and counts
// its dump; the one beside it sees no trigger and writes nothing.
TEST(EngineTracing, FlightDumpsStayWithTheJobThatAskedForThem) {
  char failing_dir[] = "/tmp/bmr_flight_fail_XXXXXX";
  char healthy_dir[] = "/tmp/bmr_flight_ok_XXXXXX";
  ASSERT_NE(mkdtemp(failing_dir), nullptr);
  ASSERT_NE(mkdtemp(healthy_dir), nullptr);
  auto cluster = MakeTestCluster(/*slaves=*/2);
  workload::TextGenOptions gen;
  gen.total_bytes = 64 << 10;
  gen.vocabulary = 5000;
  auto files = workload::GenerateZipfText(cluster.get(), "/iso-in", gen);
  ASSERT_TRUE(files.ok()) << files.status();

  service::JobService svc(cluster.get());
  service::PoolConfig pool;
  pool.name = "p";
  ASSERT_TRUE(svc.AddPool(pool).ok());
  apps::AppOptions failing;
  failing.input_files = *files;
  failing.output_path = "/iso-fail";
  failing.num_reducers = 2;
  failing.barrierless = true;
  failing.store.heap_limit_bytes = 2048;  // partial results cannot fit
  failing.extra.Set("obs.flight_dir", failing_dir);
  apps::AppOptions healthy = failing;
  healthy.output_path = "/iso-ok";
  healthy.store.heap_limit_bytes = 0;
  healthy.extra.Set("obs.flight_dir", healthy_dir);
  auto fail_ticket = svc.Submit("p", apps::MakeWordCountJob(failing));
  auto ok_ticket = svc.Submit("p", apps::MakeWordCountJob(healthy));
  ASSERT_TRUE(fail_ticket.ok() && ok_ticket.ok());
  service::JobOutcome failed = svc.Wait(*fail_ticket);
  service::JobOutcome passed = svc.Wait(*ok_ticket);

  ASSERT_FALSE(failed.status.ok());
  ASSERT_TRUE(passed.status.ok()) << passed.status;
  EXPECT_EQ(failed.result.flight_dumps, 1u);
  ASSERT_EQ(failed.result.dump_reasons.size(), 1u);
  EXPECT_EQ(failed.result.dump_reasons[0].rfind("job.failure: ", 0), 0u);
  EXPECT_TRUE(passed.result.dump_reasons.empty());
  EXPECT_EQ(passed.result.flight_dumps, 0u);
  EXPECT_EQ(obs::PrometheusText(mr::BuildMetricsSnapshot(passed.result))
                .find(obs::kPromObsFlightDumps),
            std::string::npos);
  EXPECT_EQ(TakeFlightArtifacts(failing_dir).size(), 1u);
  EXPECT_TRUE(TakeFlightArtifacts(healthy_dir).empty());
}

TEST(EngineTracing, UntracedRunCarriesNoTraceState) {
  auto cluster = MakeTestCluster(/*slaves=*/3, /*block_bytes=*/8 << 10);
  mr::JobResult result = RunWordCount(cluster.get(), /*traced=*/false, "/out");
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_FALSE(result.trace_enabled);
  EXPECT_TRUE(result.trace.empty());
  EXPECT_TRUE(result.histograms.empty());
}

TEST(EngineTracing, SimulatedRunFlowsThroughTheSameExporters) {
  simmr::SimResult sim =
      simmr::SimulateJob(cluster::PaperCluster(), simmr::WordCountSim(0.1));
  mr::JobMetrics metrics = simmr::ToJobMetrics(sim);

  obs::TraceLog log = mr::BuildTraceLog(metrics);
  EXPECT_GE(log.spans.size(), metrics.events.size());
  Status st = obs::ValidatePerfettoJson(obs::PerfettoTraceJson(log),
                                        /*min_spans=*/10);
  EXPECT_TRUE(st.ok()) << st;
  st = obs::ValidatePrometheusText(
      obs::PrometheusText(mr::BuildMetricsSnapshot(metrics)));
  EXPECT_TRUE(st.ok()) << st;
}

// Satellite: faults that fire during a chaos run must surface in the
// Prometheus exposition as the labeled bmr_faults_injected_total family.
TEST(EngineTracing, InjectedFaultsAppearInPrometheusExposition) {
  faults::FaultEvent timeout;
  timeout.kind = faults::FaultKind::kFetchTimeout;
  timeout.count = 2;
  faults::FaultPlan plan;
  plan.events = {timeout};
  faults::FaultInjector injector(plan);

  auto cluster = MakeTestCluster(/*slaves=*/3, /*block_bytes=*/8 << 10);
  cluster->InstallFaultInjector(&injector);
  mr::JobResult result = RunWordCount(cluster.get(), /*traced=*/true, "/out");
  cluster->InstallFaultInjector(nullptr);
  ASSERT_TRUE(result.ok()) << result.status;  // fetch retries recover
  ASSERT_EQ(injector.injected(faults::FaultKind::kFetchTimeout), 2u);

  EXPECT_EQ(result.counters.Get("fault_injected_fetch_timeout"), 2u);
  const std::string text =
      obs::PrometheusText(mr::BuildMetricsSnapshot(result));
  Status st = obs::ValidatePrometheusText(text);
  EXPECT_TRUE(st.ok()) << st;
  EXPECT_NE(text.find("bmr_faults_injected_total{kind=\"fetch_timeout\"} 2"),
            std::string::npos)
      << text;
}

// ---- Golden report text ------------------------------------------------

TEST(GoldenText, FormatJobMetricsIsStable) {
  mr::JobMetrics m;
  m.elapsed_seconds = 1.5;
  m.first_map_done = 0.25;
  m.last_map_done = 0.75;
  m.counters.Add("map_input_records", 100);
  m.counters.Add("reduce_output_records", 40);
  m.events.push_back({mr::Phase::kMap, 0, 1, 0.0, 0.5});
  m.memory_samples.push_back({0.5, 0, 1024});
  m.output_files.push_back("/out/part-00000");

  EXPECT_EQ(mr::FormatJobMetrics("gold", m),
            "[gold] elapsed 1.500s  maps done 0.250s..0.750s\n"
            "[gold] 1 task events, 1 memory samples, 1 output files\n"
            "[gold]   map_input_records                100\n"
            "[gold]   reduce_output_records            40\n");

  LogHistogram h;
  h.Add(3);
  m.histograms[obs::kHStoreFoldUs] = h;
  EXPECT_EQ(
      mr::FormatJobMetrics("gold", m),
      "[gold] elapsed 1.500s  maps done 0.250s..0.750s\n"
      "[gold] 1 task events, 1 memory samples, 1 output files\n"
      "[gold]   map_input_records                100\n"
      "[gold]   reduce_output_records            40\n"
      "[gold] 1 latency histograms\n"
      "[gold]   bmr_store_fold_us                    "
      "count 1        mean 3.0        p50<=3        p95<=3        p99<=3  "
      "      max 3\n");
}

TEST(GoldenText, RenderActivityIsStable) {
  std::vector<mr::TaskEvent> events;
  events.push_back({mr::Phase::kMap, 0, 1, 0.0, 0.2});
  events.push_back({mr::Phase::kReduce, 1, 2, 0.1, 0.3});

  EXPECT_EQ(mr::RenderActivity(events, /*step=*/0.1),
            "time\tMap\tReduce\n"
            "0.0\t1\t0\n"
            "0.1\t1\t1\n"
            "0.2\t0\t1\n"
            "0.3\t0\t0\n");
}

}  // namespace
}  // namespace bmr
