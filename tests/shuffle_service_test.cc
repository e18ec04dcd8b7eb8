// ShuffleService unit tests: barrier and FIFO sinks fed by the same
// fetch machinery, RAII sink registration (the Fail/FIFO-close race
// fix), and job-scoped segment stores keeping concurrent jobs apart.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/block_container.h"
#include "common/mutex.h"
#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "mr/map_output.h"
#include "mr/shuffle_service.h"
#include "net/transport.h"
#include "transport_test_util.h"

namespace bmr::mr {
namespace {

/// One single-partition segment holding the given records.
std::string MakeSegment(const std::vector<Record>& records) {
  MapOutputCollector collector(1, nullptr);
  for (const Record& r : records) collector.Emit(r.key, r.value);
  auto finished = collector.Finish(/*sort=*/false, nullptr, nullptr);
  EXPECT_TRUE(finished.ok());
  return finished->segments[0];
}

ShuffleService::RelaunchFn NoRelaunch() {
  return [](int, int) { FAIL() << "unexpected relaunch"; };
}

ShuffleService::ErrorFn NoError() {
  return [](const Status& st) { FAIL() << "unexpected error: " << st; };
}

/// Drain the sink's FIFO batch-wise until it closes, materializing the
/// entries (the batches — and the buffers they pin — die here).
std::multiset<std::pair<std::string, std::string>> DrainFifo(FifoSink& sink) {
  std::multiset<std::pair<std::string, std::string>> got;
  std::vector<RecordBatch> batches;
  while (sink.fifo().PopAll(&batches) > 0) {
    for (const RecordBatch& batch : batches) {
      for (const RecordBatch::Entry& entry : batch) {
        got.emplace(entry.key.ToString(), entry.value.ToString());
      }
    }
    batches.clear();
  }
  return got;
}

TEST(ShuffleServiceTest, FifoSinkReceivesEveryMapOutputThenCloses) {
  auto transport = testutil::MakeTransport(3);
  ShuffleService service(transport.get(), 3, /*num_map_tasks=*/2, /*job_id=*/7);

  service.Publish(0, 1, {MakeSegment({{"a", "1"}, {"b", "2"}})});
  service.Publish(1, 2, {MakeSegment({{"c", "3"}})});

  FifoSink sink(64);
  auto fetch = service.StartFetch(0, /*node=*/2, &sink, NoRelaunch(),
                                  NoError());
  // The last fetcher calls AllDelivered => the FIFO closes by itself,
  // so the batch drain terminates without any external signal.
  auto got = DrainFifo(sink);
  fetch->Join();
  EXPECT_GT(fetch->bytes_fetched(), 0u);

  std::multiset<std::pair<std::string, std::string>> want = {
      {"a", "1"}, {"b", "2"}, {"c", "3"}};
  EXPECT_EQ(got, want);
}

// Publish encodes on the calling thread: the moment it returns, every
// partition of the map is in the store and decodes to the raw bytes,
// with no drain in between.  Concurrent publishers leave encode_stats()
// at the exact totals of what they published and what is served.
TEST(ShuffleServiceTest, PublishReturnsWithTheMapFetchable) {
  constexpr int kThreads = 4;
  constexpr int kMapsPerThread = 64;
  constexpr int kPartitions = 3;
  constexpr int kNodes = 3;
  auto transport = testutil::MakeTransport(kNodes);
  ShuffleService service(transport.get(), kNodes, kThreads * kMapsPerThread,
                         /*job_id=*/21);
  std::atomic<uint64_t> raw_bytes{0};
  std::atomic<uint64_t> wire_bytes{0};
  std::atomic<int> fetched{0};
  std::vector<std::thread> publishers;
  for (int t = 0; t < kThreads; ++t) {
    publishers.emplace_back([&, t] {
      for (int i = 0; i < kMapsPerThread; ++i) {
        const int m = t * kMapsPerThread + i;
        const int node = m % kNodes;
        // An empty partition, a small record stream, and every 16th
        // map a segment spanning several compression blocks.
        std::vector<std::string> raw = {
            "",
            MakeSegment({{"key" + std::to_string(m), std::to_string(i)}}),
            std::string(i % 16 == 0 ? 150 << 10 : 100, 'a' + m % 26)};
        service.Publish(m, node, raw);
        for (int p = 0; p < kPartitions; ++p) {
          std::string segment;
          Status st = FetchSegment(transport.get(), node, (node + 1) % kNodes,
                                   m, p, &segment, /*job_id=*/21);
          if (!st.ok()) {
            ADD_FAILURE() << "map " << m << " partition " << p << ": " << st;
            continue;
          }
          std::shared_ptr<const std::string> decoded;
          st = DecodeShuffleSegment(Slice(segment), &decoded);
          if (!st.ok() || *decoded != raw[p]) {
            ADD_FAILURE() << "map " << m << " partition " << p << ": " << st;
            continue;
          }
          raw_bytes.fetch_add(raw[p].size());
          wire_bytes.fetch_add(segment.size());
          fetched.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : publishers) t.join();
  ASSERT_EQ(fetched.load(), kThreads * kMapsPerThread * kPartitions);
  const SegmentEncodeStats stats = service.encode_stats();
  EXPECT_EQ(stats.raw_bytes, raw_bytes.load());
  EXPECT_EQ(stats.wire_bytes, wire_bytes.load());
}

TEST(ShuffleServiceTest, BarrierSinkCollectsPerMapperRuns) {
  auto transport = testutil::MakeTransport(3);
  ShuffleService service(transport.get(), 3, /*num_map_tasks=*/2, /*job_id=*/1);

  service.Publish(0, 1, {MakeSegment({{"x", "0"}})});
  service.Publish(1, 1, {MakeSegment({{"y", "1"}, {"z", "2"}})});

  BarrierSink sink(2);
  auto fetch = service.StartFetch(0, /*node=*/2, &sink, NoRelaunch(),
                                  NoError());
  fetch->Join();  // the barrier: all runs present after this

  ASSERT_EQ(sink.runs().size(), 2u);
  ASSERT_EQ(sink.runs()[0].size(), 1u);
  EXPECT_EQ(sink.runs()[0][0].key.ToString(), "x");
  ASSERT_EQ(sink.runs()[1].size(), 2u);
  EXPECT_EQ(sink.runs()[1][0].key.ToString(), "y");
}

TEST(ShuffleServiceTest, CancelAfterFetchDestructionTouchesNoDeadSink) {
  // Regression test for the Fail/FIFO-close race: a reducer that
  // returns early destroys its sink and Fetch; a later job-level
  // Cancel must not reach the dead sink.  (The RAII Fetch destructor
  // unregisters the sink — ASan would flag the old dangling pointer.)
  auto transport = testutil::MakeTransport(3);
  ShuffleService service(transport.get(), 3, /*num_map_tasks=*/1, /*job_id=*/2);
  service.Publish(0, 1, {MakeSegment({{"k", "v"}})});
  {
    FifoSink sink(4);
    auto fetch = service.StartFetch(0, /*node=*/2, &sink, NoRelaunch(),
                                    NoError());
    std::vector<RecordBatch> batches;
    while (sink.fifo().PopAll(&batches) > 0) batches.clear();
    // Early return path: fetch and sink die here, without Cancel.
  }
  service.Cancel();  // must be a no-op on the unregistered sink
}

TEST(ShuffleServiceTest, TransientFetchFailuresAreRetriedUntilSuccess) {
  // An injected fetch timeout is transient: the fetcher must back off
  // and retry rather than surface the error, and count its retries.
  auto transport = testutil::MakeTransport(3);
  faults::FaultEvent timeout;
  timeout.kind = faults::FaultKind::kFetchTimeout;
  timeout.count = 2;
  faults::FaultPlan plan;
  plan.events = {timeout};
  faults::FaultInjector injector(plan);

  ShuffleOptions options;
  options.injector = &injector;
  options.max_fetch_retries = 4;
  options.backoff_ms = 0.1;
  options.backoff_max_ms = 0.5;
  ShuffleService service(transport.get(), 3, /*num_map_tasks=*/1, /*job_id=*/5,
                         options);
  service.Publish(0, 1, {MakeSegment({{"k", "v"}})});

  FifoSink sink(4);
  auto fetch = service.StartFetch(0, /*node=*/2, &sink, NoRelaunch(),
                                  NoError());
  auto got = DrainFifo(sink);
  fetch->Join();

  EXPECT_EQ(got, (std::multiset<std::pair<std::string, std::string>>{
                     {"k", "v"}}));
  EXPECT_EQ(fetch->retries(), 2u);
  EXPECT_FALSE(fetch->tainted());
  EXPECT_EQ(injector.injected(faults::FaultKind::kFetchTimeout), 2u);
}

TEST(ShuffleServiceTest, ExhaustedRetriesSurfaceWhenFailFastIsSet) {
  // With fail_on_fetch_error (the chaos harness's "teeth" switch) a
  // persistent failure reaches the error callback instead of the
  // lost-map recovery path.
  auto transport = testutil::MakeTransport(3);
  faults::FaultEvent timeout;
  timeout.kind = faults::FaultKind::kFetchTimeout;
  timeout.count = 1;
  faults::FaultPlan plan;
  plan.events = {timeout};
  faults::FaultInjector injector(plan);

  ShuffleOptions options;
  options.injector = &injector;
  options.fail_on_fetch_error = true;
  ShuffleService service(transport.get(), 3, /*num_map_tasks=*/1, /*job_id=*/6,
                         options);
  service.Publish(0, 1, {MakeSegment({{"k", "v"}})});

  Status seen = Status::Ok();
  FifoSink sink(4);
  auto fetch = service.StartFetch(
      0, /*node=*/2, &sink, NoRelaunch(),
      [&seen](const Status& st) { seen = st; });
  fetch->Join();
  EXPECT_FALSE(seen.ok());
  EXPECT_EQ(fetch->retries(), 0u);
}

/// Records which thread delivered each map, and how often.
class RecordingSink final : public ShuffleSink {
 public:
  explicit RecordingSink(int num_map_tasks) : deliveries_(num_map_tasks) {}

  bool Accept(int map_task, RecordBatch batch) override {
    (void)batch;
    MutexLock lock(mu_);
    ++deliveries_[map_task];
    threads_.insert(std::this_thread::get_id());
    return true;
  }
  void Cancel() override {}

  std::vector<int> deliveries() {
    MutexLock lock(mu_);
    return deliveries_;
  }
  size_t threads() {
    MutexLock lock(mu_);
    return threads_.size();
  }

 private:
  Mutex mu_;
  std::vector<int> deliveries_ BMR_GUARDED_BY(mu_);
  std::set<std::thread::id> threads_ BMR_GUARDED_BY(mu_);
};

TEST(ShuffleServiceTest, ManyMapsArriveOnceFromABoundedSetOfCopiers) {
  constexpr int kMaps = 256;
  auto transport = testutil::MakeTransport(3);
  ShuffleService service(transport.get(), 3, kMaps, /*job_id=*/12);
  RecordingSink sink(kMaps);
  auto fetch = service.StartFetch(0, /*node=*/2, &sink, NoRelaunch(),
                                  NoError());
  for (int m = kMaps - 1; m >= 0; --m) {
    service.Publish(m, 1, {MakeSegment({{std::to_string(m), "v"}})});
  }
  fetch->Join();
  EXPECT_EQ(sink.deliveries(), std::vector<int>(kMaps, 1));
  EXPECT_GE(sink.threads(), 1u);
  EXPECT_LE(sink.threads(), static_cast<size_t>(kFetchCopies));
  EXPECT_FALSE(fetch->tainted());
}

TEST(ShuffleServiceTest, CancelInterruptsRetryBackoff) {
  auto transport = testutil::MakeTransport(3);
  faults::FaultEvent timeout;
  timeout.kind = faults::FaultKind::kFetchTimeout;
  timeout.count = 1000;  // every fetch fails
  faults::FaultPlan plan;
  plan.events = {timeout};
  faults::FaultInjector injector(plan);

  ShuffleOptions options;
  options.injector = &injector;
  options.backoff_ms = 60000;
  options.backoff_max_ms = 60000;
  ShuffleService service(transport.get(), 3, /*num_map_tasks=*/2,
                         /*job_id=*/13, options);
  service.Publish(0, 1, {MakeSegment({{"k", "v"}})});
  service.Publish(1, 1, {MakeSegment({{"l", "w"}})});

  FifoSink sink(4);
  auto fetch = service.StartFetch(0, /*node=*/2, &sink, NoRelaunch(),
                                  NoError());
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (fetch->retries() < 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_GE(fetch->retries(), 1u);
  auto cancelled_at = std::chrono::steady_clock::now();
  service.Cancel();
  fetch->Join();
  EXPECT_LT(std::chrono::steady_clock::now() - cancelled_at,
            std::chrono::seconds(10));
  EXPECT_TRUE(DrainFifo(sink).empty());  // the cancel closed it

  // A fetch started after the cancel ends at once, closing its sink.
  FifoSink late_sink(4);
  auto late = service.StartFetch(1, /*node=*/2, &late_sink, NoRelaunch(),
                                 NoError());
  late->Join();
  EXPECT_TRUE(late_sink.fifo().closed());
}

TEST(ShuffleServiceTest, LostMapIsRerunAndTaintsItsEarlierConsumer) {
  constexpr int kMaps = 16;
  constexpr int kLostMap = 5;
  auto transport = testutil::MakeTransport(3);
  // Only map kLostMap lives on node 1.  The first fetch from node 1
  // (the consumer's) succeeds; the next three fail, which exhausts the
  // second fetch's two retries.
  faults::FaultEvent timeout;
  timeout.kind = faults::FaultKind::kFetchTimeout;
  timeout.node = 1;
  timeout.after_calls = 1;
  timeout.count = 3;
  faults::FaultPlan plan;
  plan.events = {timeout};
  faults::FaultInjector injector(plan);

  ShuffleOptions options;
  options.injector = &injector;
  options.max_fetch_retries = 2;
  options.backoff_ms = 0.1;
  options.backoff_max_ms = 0.1;
  ShuffleService service(transport.get(), 3, kMaps, /*job_id=*/14, options);
  auto segment = [](int m) {
    return MakeSegment({{std::to_string(m), "v"}});
  };
  for (int m = 0; m < kMaps; ++m) {
    service.Publish(m, m == kLostMap ? 1 : 0, {segment(m)});
  }

  RecordingSink consumer_sink(kMaps);
  auto consumer = service.StartFetch(0, /*node=*/2, &consumer_sink,
                                     NoRelaunch(), NoError());
  consumer->Join();
  EXPECT_EQ(consumer_sink.deliveries(), std::vector<int>(kMaps, 1));
  EXPECT_FALSE(consumer->tainted());

  std::atomic<int> relaunches{0};
  RecordingSink sink(kMaps);
  auto fetch = service.StartFetch(
      0, /*node=*/2, &sink,
      [&](int m, int node) {
        EXPECT_EQ(m, kLostMap);
        EXPECT_EQ(node, 1);
        relaunches.fetch_add(1);
        service.Publish(m, 0, {segment(m)});  // the re-run, on node 0
      },
      NoError());
  fetch->Join();
  EXPECT_EQ(relaunches.load(), 1);
  EXPECT_EQ(sink.deliveries(), std::vector<int>(kMaps, 1));
  EXPECT_FALSE(fetch->tainted());
  EXPECT_EQ(fetch->retries(), 2u);
  EXPECT_TRUE(consumer->tainted());  // it consumed the lost attempt
}

TEST(ShuffleServiceTest, RerunOfAConsumedMapIsNotDeliveredAgain) {
  auto transport = testutil::MakeTransport(3);
  ShuffleService service(transport.get(), 3, /*num_map_tasks=*/2,
                         /*job_id=*/15);
  RecordingSink sink(2);
  auto fetch = service.StartFetch(0, /*node=*/2, &sink, NoRelaunch(),
                                  NoError());
  service.Publish(1, 1, {MakeSegment({{"b", "1"}})});
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (sink.deliveries()[1] == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_EQ(sink.deliveries()[1], 1);
  // Another reducer loses the consumed attempt; its re-run commits
  // while this fetch still waits for map 0, so a copier takes it.
  MapOutputTracker::Cursor cursor;
  MapOutputTracker::Entry consumed;
  ASSERT_TRUE(service.tracker().Next(&cursor, &consumed));
  ASSERT_TRUE(service.tracker().ReportLost(1, consumed.version));
  service.Publish(1, 0, {MakeSegment({{"b", "1"}})});
  service.Publish(0, 0, {MakeSegment({{"a", "0"}})});
  fetch->Join();
  EXPECT_EQ(sink.deliveries(), (std::vector<int>{1, 1}));
}

TEST(ShuffleServiceTest, ConcurrentJobsKeepSeparateSegmentStores) {
  auto transport = testutil::MakeTransport(3);
  ShuffleService job_a(transport.get(), 3, 1, /*job_id=*/10);
  ShuffleService job_b(transport.get(), 3, 1, /*job_id=*/11);

  // Same (map_task, partition, node) coordinates in both jobs.
  job_a.Publish(0, 1, {"segment-of-job-a"});
  job_b.Publish(0, 1, {"segment-of-job-b"});

  // Publish encodes into the block container: fetch the wire bytes and
  // decode back to the raw payload to compare.
  std::string segment;
  std::shared_ptr<const std::string> raw;
  ASSERT_TRUE(
      FetchSegment(transport.get(), 1, 2, 0, 0, &segment, /*job_id=*/10).ok());
  ASSERT_TRUE(DecodeShuffleSegment(Slice(segment), &raw).ok());
  EXPECT_EQ(*raw, "segment-of-job-a");
  ASSERT_TRUE(
      FetchSegment(transport.get(), 1, 2, 0, 0, &segment, /*job_id=*/11).ok());
  ASSERT_TRUE(DecodeShuffleSegment(Slice(segment), &raw).ok());
  EXPECT_EQ(*raw, "segment-of-job-b");
}

TEST(ShuffleServiceTest, DestructionUnregistersTheJobsFetchHandler) {
  auto transport = testutil::MakeTransport(2);
  {
    ShuffleService service(transport.get(), 2, 1, /*job_id=*/3);
    service.Publish(0, 1, {"bytes"});
    std::string segment;
    ASSERT_TRUE(FetchSegment(transport.get(), 1, 0, 0, 0, &segment, 3).ok());
  }
  // The job is gone: its method name no longer resolves.
  std::string segment;
  EXPECT_FALSE(FetchSegment(transport.get(), 1, 0, 0, 0, &segment, 3).ok());
}

}  // namespace
}  // namespace bmr::mr
