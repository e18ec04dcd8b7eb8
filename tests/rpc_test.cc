// Tests for the node-to-node transport layer, run against BOTH
// implementations: every case in TransportTest is instantiated once
// over the in-process registry and once over real TCP/epoll sockets,
// which is the per-method form of the PR's payoff gate (everything
// above net/ must be unable to tell the transports apart).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/serde.h"
#include "obs/metric_names.h"
#include "obs/trace.h"
#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "mr/map_output.h"
#include "net/tcp_transport.h"
#include "net/transport.h"
#include "transport_test_util.h"

namespace bmr::net {
namespace {

class TransportTest : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<Transport> Make(int num_nodes,
                                  const TransportOptions& options = {}) {
    return testutil::MakeTransportOfKind(GetParam(), num_nodes, options);
  }
  bool IsTcp() const { return std::string(GetParam()) == "tcp"; }
};

TEST_P(TransportTest, CallInvokesHandler) {
  auto transport = Make(4);
  transport->Register(1, "echo", [](Slice req, ByteBuffer* resp) {
    resp->Append(req);
    return Status::Ok();
  });
  ByteBuffer resp;
  ASSERT_TRUE(transport->Call(0, 1, "echo", "hello", &resp).ok());
  EXPECT_EQ(resp.ToString(), "hello");
}

// Tentpole (GUIDE §15): with a tracer installed, a Call carries its
// trace context on the wire and the serving side opens an rpc.handler
// span under the CALLER's open span — one stitched tree, same shape on
// both transports even though TCP crosses real sockets to get there.
TEST_P(TransportTest, HandlerSpanStitchesUnderCallerSpan) {
  auto transport = Make(3);
  transport->Register(2, "echo", [](Slice req, ByteBuffer* resp) {
    resp->Append(req);
    return Status::Ok();
  });

  obs::Tracer tracer;
  tracer.Enable();
  tracer.RestartClock();
  transport->SetObserver(&tracer);
  obs::SpanId caller_id;
  {
    obs::ScopedSpan caller(&tracer, "caller", "test");
    caller_id = caller.id();
    ByteBuffer resp;
    ASSERT_TRUE(transport->Call(0, 2, "echo", "ping", &resp).ok());
  }
  transport->SetObserver(nullptr);

  obs::TraceLog log = tracer.CollectTrace();
  size_t handlers = 0;
  for (const obs::Span& s : log.spans) {
    if (std::strcmp(s.name, obs::kSpanRpcHandler) != 0) continue;
    ++handlers;
    EXPECT_EQ(s.parent, caller_id) << "handler must stitch under the caller";
    EXPECT_STREQ(s.category, "rpc");
    EXPECT_EQ(s.arg, 2) << "arg is the serving node";
  }
  EXPECT_EQ(handlers, 1u);
}

// Without an observer no trace context goes on the wire and no handler
// spans appear — the traced and untraced wire formats interoperate.
TEST_P(TransportTest, UntracedCallsRecordNoHandlerSpans) {
  auto transport = Make(2);
  transport->Register(1, "echo", [](Slice req, ByteBuffer* resp) {
    resp->Append(req);
    return Status::Ok();
  });
  ByteBuffer resp;
  ASSERT_TRUE(transport->Call(0, 1, "echo", "x", &resp).ok());

  // Installing the observer AFTER untraced calls yields a clean slate.
  obs::Tracer tracer;
  tracer.Enable();
  transport->SetObserver(&tracer);
  transport->SetObserver(nullptr);
  EXPECT_TRUE(tracer.CollectTrace().spans.empty());
}

TEST_P(TransportTest, UnknownMethodIsNotFound) {
  auto transport = Make(2);
  ByteBuffer resp;
  EXPECT_EQ(transport->Call(0, 1, "nope", "", &resp).code(),
            StatusCode::kNotFound);
}

TEST_P(TransportTest, HandlerErrorPropagates) {
  auto transport = Make(2);
  transport->Register(1, "fail", [](Slice, ByteBuffer*) {
    return Status::Unavailable("down");
  });
  ByteBuffer resp;
  EXPECT_EQ(transport->Call(0, 1, "fail", "", &resp).code(),
            StatusCode::kUnavailable);
}

TEST_P(TransportTest, KillNodeDropsItsHandlersOnly) {
  auto transport = Make(3);
  transport->Register(1, "svc",
                      [](Slice, ByteBuffer*) { return Status::Ok(); });
  transport->Register(2, "svc",
                      [](Slice, ByteBuffer*) { return Status::Ok(); });
  transport->KillNode(1);
  ByteBuffer resp;
  EXPECT_EQ(transport->Call(0, 1, "svc", "", &resp).code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(transport->Call(0, 2, "svc", "", &resp).ok());
}

TEST_P(TransportTest, LinkStatsMeterTraffic) {
  auto transport = Make(3);
  transport->Register(2, "pad", [](Slice, ByteBuffer* resp) {
    resp->Append(Slice(std::string(100, 'x')));
    return Status::Ok();
  });
  ByteBuffer resp;
  ASSERT_TRUE(transport->Call(1, 2, "pad", "abc", &resp).ok());
  ASSERT_TRUE(transport->Call(1, 2, "pad", "defg", &resp).ok());
  LinkStats stats = transport->GetLinkStats(1, 2);
  EXPECT_EQ(stats.calls, 2u);
  EXPECT_EQ(stats.request_bytes, 7u);
  EXPECT_EQ(stats.response_bytes, 200u);
  // Local (self) calls are excluded from remote totals.
  transport->Register(1, "pad",
                      [](Slice, ByteBuffer*) { return Status::Ok(); });
  ASSERT_TRUE(transport->Call(1, 1, "pad", "zzzz", &resp).ok());
  LinkStats total = transport->TotalRemoteTraffic();
  EXPECT_EQ(total.calls, 2u);
  EXPECT_EQ(total.request_bytes, 7u);
}

TEST_P(TransportTest, ConcurrentCallsAreSafe) {
  auto transport = Make(4);
  std::atomic<int> hits{0};
  transport->Register(0, "inc", [&hits](Slice, ByteBuffer*) {
    hits.fetch_add(1);
    return Status::Ok();
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&transport] {
      ByteBuffer resp;
      for (int i = 0; i < 500; ++i) {
        ASSERT_TRUE(transport->Call(1, 0, "inc", "", &resp).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(hits.load(), 4000);
}

TEST_P(TransportTest, ReRegisterReplacesHandlerAndIsCounted) {
  auto transport = Make(2);
  EXPECT_EQ(transport->handler_reregistrations(), 0u);
  transport->Register(0, "v", [](Slice, ByteBuffer* r) {
    r->Append(Slice("one"));
    return Status::Ok();
  });
  // Registering a *different* method is not a re-registration.
  transport->Register(0, "w",
                      [](Slice, ByteBuffer*) { return Status::Ok(); });
  EXPECT_EQ(transport->handler_reregistrations(), 0u);
  transport->Register(0, "v", [](Slice, ByteBuffer* r) {
    r->Append(Slice("two"));
    return Status::Ok();
  });
  ByteBuffer resp;
  ASSERT_TRUE(transport->Call(1, 0, "v", "", &resp).ok());
  EXPECT_EQ(resp.ToString(), "two");
  // The overwrite kept working (DFS restart relies on it) but is no
  // longer silent: bmr_rpc_handler_reregistered_total sees it.
  EXPECT_EQ(transport->handler_reregistrations(), 1u);
  transport->KillNode(0);
  transport->Register(0, "v",
                      [](Slice, ByteBuffer*) { return Status::Ok(); });
  // Re-adding after KillNode is a fresh registration, not an overwrite.
  EXPECT_EQ(transport->handler_reregistrations(), 1u);
}

// Regression test for KillNode racing in-flight Calls: the handler is
// copied out of the registry before dispatch, so a call either runs to
// completion or observes the node as dead (NotFound) — it must never
// crash or see a half-destroyed handler.
TEST_P(TransportTest, KillNodeRacingCallCompletesOrNotFound) {
  auto transport = Make(3);
  std::atomic<bool> stop{false};
  transport->Register(1, "slow", [](Slice, ByteBuffer* resp) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    resp->Append(Slice("done"));
    return Status::Ok();
  });
  std::atomic<int> completed{0};
  std::atomic<int> not_found{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&] {
      ByteBuffer resp;
      while (!stop.load()) {
        Status st = transport->Call(0, 1, "slow", "x", &resp);
        if (st.ok()) {
          ASSERT_EQ(resp.ToString(), "done");
          completed.fetch_add(1);
        } else {
          ASSERT_EQ(st.code(), StatusCode::kNotFound) << st;
          not_found.fetch_add(1);
        }
      }
    });
  }
  // Wait for calls to complete, yank the node out from under them, and
  // stop once a caller has seen it dead.  Bounded waits on the counters,
  // not fixed sleeps: a loaded host may not schedule the callers at all
  // within a few milliseconds.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (completed.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  transport->KillNode(1);
  while (not_found.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (auto& t : callers) t.join();
  EXPECT_GT(completed.load(), 0);
  EXPECT_GT(not_found.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(AllTransports, TransportTest,
                         ::testing::Values("inproc", "tcp"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(TransportFactoryTest, RejectsUnknownKind) {
  auto transport = CreateTransport("carrier-pigeon", 2);
  ASSERT_FALSE(transport.ok());
  EXPECT_EQ(transport.status().code(), StatusCode::kInvalidArgument);
}

TEST(TransportFactoryTest, EmptyKindIsInproc) {
  auto transport = CreateTransport("", 2);
  ASSERT_TRUE(transport.ok());
  EXPECT_EQ((*transport)->num_nodes(), 2);
}

TEST(TransportFactoryTest, RejectsNonPositiveNodeCount) {
  EXPECT_FALSE(CreateTransport("inproc", 0).ok());
  EXPECT_FALSE(CreateTransport("tcp", -1).ok());
}

// Satellite coverage: on the wire transport an injected duplicate is a
// real extra frame, counted exactly once per wire send in LinkStats,
// and deduped server-side so the handler still runs exactly once.
TEST(TcpTransportTest, InjectedDuplicateIsOneExtraWireSend) {
  auto created = TcpTransport::Create(2, {});
  ASSERT_TRUE(created.ok()) << created.status();
  std::unique_ptr<TcpTransport> transport = std::move(*created);
  std::atomic<int> executions{0};
  transport->Register(1, "read", [&executions](Slice, ByteBuffer* resp) {
    executions.fetch_add(1);
    resp->Append(Slice("payload"));
    return Status::Ok();
  });

  faults::FaultEvent dup;
  dup.kind = faults::FaultKind::kRpcDuplicate;
  dup.method_prefix = "read";
  faults::FaultPlan plan;
  plan.events = {dup};
  faults::FaultInjector injector(plan);
  transport->SetFaultInjector(&injector);

  ByteBuffer resp;
  ASSERT_TRUE(transport->Call(0, 1, "read", "abcde", &resp).ok());
  EXPECT_EQ(resp.ToString(), "payload");
  transport->SetFaultInjector(nullptr);
  ASSERT_TRUE(transport->Call(0, 1, "read", "abcde", &resp).ok());

  EXPECT_EQ(injector.injected(faults::FaultKind::kRpcDuplicate), 1u);
  // The duplicate's replayed response is written asynchronously; wait,
  // under a deadline, for the server to finish the third wire send.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  LinkStats stats = transport->GetLinkStats(0, 1);
  while (stats.response_bytes < 21u &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
    stats = transport->GetLinkStats(0, 1);
  }
  // Call 1 put two frames on the wire (original + injected duplicate),
  // call 2 put one: three wire sends, each counted exactly once.
  EXPECT_EQ(stats.calls, 3u);
  EXPECT_EQ(stats.request_bytes, 15u);
  // The duplicate was answered from the response keeper, not by a
  // second handler execution...
  EXPECT_EQ(executions.load(), 2);
  EXPECT_GE(transport->response_keeper().replays(), 1u);
  // ...but its replayed response is still a wire send of its own.
  EXPECT_EQ(stats.response_bytes, 21u);
}

// Satellite parity assert: the segment-corruption hook fires at the
// serving node's wire boundary (RegisterShuffleService), so the exact
// same corrupted bytes come back over the in-process registry and over
// real TCP — and the store copy stays intact for the retry fetch.
// Before the move the hook ran client-side after the fetch, which on
// TCP corrupted bytes that had already crossed the socket cleanly.
TEST(ShuffleCorruptionParityTest, BothTransportsCorruptAtTheWireBoundary) {
  const std::string payload = "framed-segment-bytes-to-corrupt";
  std::map<std::string, std::string> corrupted;
  for (const char* kind : {"inproc", "tcp"}) {
    auto transport = testutil::MakeTransportOfKind(kind, 2);
    ASSERT_NE(transport, nullptr);
    mr::MapOutputStore store;
    store.Put(/*map_task=*/0, /*partition=*/0, payload);

    faults::FaultEvent corrupt;
    corrupt.kind = faults::FaultKind::kSegmentCorrupt;
    faults::FaultPlan plan;
    plan.events = {corrupt};
    faults::FaultInjector injector(plan);
    mr::RegisterShuffleService(transport.get(), /*node=*/0, &store,
                               /*job_id=*/0, &injector);

    std::string first, second;
    ASSERT_TRUE(mr::FetchSegment(transport.get(), /*from_node=*/0,
                                 /*at_node=*/1, 0, 0, &first)
                    .ok());
    ASSERT_TRUE(mr::FetchSegment(transport.get(), /*from_node=*/0,
                                 /*at_node=*/1, 0, 0, &second)
                    .ok());
    EXPECT_EQ(injector.injected(faults::FaultKind::kSegmentCorrupt), 1u)
        << kind;
    EXPECT_NE(first, payload) << kind << ": corruption never hit the wire";
    EXPECT_EQ(second, payload) << kind << ": store copy was not intact";
    corrupted[kind] = first;
    mr::UnregisterShuffleService(transport.get(), 0, 0);
  }
  EXPECT_EQ(corrupted["inproc"], corrupted["tcp"])
      << "transports injected corruption at different points";
}

}  // namespace
}  // namespace bmr::net
