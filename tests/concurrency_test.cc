// Tests for the concurrency primitives the shuffle paths are built on.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "concurrency/bounded_queue.h"
#include "concurrency/thread_pool.h"

namespace bmr {
namespace {

TEST(BoundedQueueTest, FifoOrder) {
  BoundedQueue<int> q(10);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.Push(i));
  for (int i = 0; i < 5; ++i) {
    auto v = q.Pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(BoundedQueueTest, CloseDrainsThenSignalsEnd) {
  BoundedQueue<int> q(10);
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  q.Close();
  EXPECT_FALSE(q.Push(3));  // closed
  EXPECT_EQ(*q.Pop(), 1);
  EXPECT_EQ(*q.Pop(), 2);
  EXPECT_FALSE(q.Pop().has_value());  // drained + closed
}

TEST(BoundedQueueTest, TryOpsNeverBlock) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));  // full
  EXPECT_EQ(*q.TryPop(), 1);
  EXPECT_TRUE(q.TryPush(3));
  EXPECT_EQ(*q.TryPop(), 2);
  EXPECT_EQ(*q.TryPop(), 3);
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(BoundedQueueTest, ManyProducersOneConsumerStress) {
  // The exact shape of the barrier-less shuffle: N fetchers, 1 reducer.
  BoundedQueue<int> q(64);
  const int kProducers = 8;
  const int kPerProducer = 2000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push(p * kPerProducer + i));
      }
    });
  }
  std::atomic<int> remaining{kProducers};
  std::thread closer([&] {
    for (auto& t : producers) t.join();
    q.Close();
  });
  long long sum = 0;
  int count = 0;
  while (auto v = q.Pop()) {
    sum += *v;
    ++count;
  }
  closer.join();
  EXPECT_EQ(count, kProducers * kPerProducer);
  long long n = kProducers * kPerProducer;
  EXPECT_EQ(sum, n * (n - 1) / 2);
  (void)remaining;
}

TEST(BoundedQueueTest, BlockedProducerWakesOnClose) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::atomic<bool> returned{false};
  std::thread producer([&] {
    bool ok = q.Push(2);  // blocks: queue full
    EXPECT_FALSE(ok);     // woken by Close
    returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());
  q.Close();
  producer.join();
  EXPECT_TRUE(returned.load());
}

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&done] { done.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPoolTest, TasksSubmittedFromTasksRun) {
  // RelaunchMap submits into the map pool from a reduce thread; also
  // verify re-entrant submission from inside the pool itself.
  ThreadPool pool(2);
  std::atomic<int> done{0};
  pool.Submit([&] {
    done.fetch_add(1);
    pool.Submit([&] { done.fetch_add(1); });
  });
  pool.Wait();
  EXPECT_EQ(done.load(), 2);
}

TEST(ThreadPoolTest, WaitReturnsImmediatelyWhenIdle) {
  ThreadPool pool(2);
  pool.Wait();  // no tasks: must not hang
  SUCCEED();
}

TEST(CountdownLatchTest, ReleasesAtZero) {
  CountdownLatch latch(3);
  std::atomic<bool> released{false};
  std::thread waiter([&] {
    latch.Wait();
    released = true;
  });
  latch.CountDown();
  latch.CountDown();
  EXPECT_FALSE(released.load());
  latch.CountDown();
  waiter.join();
  EXPECT_TRUE(released.load());
  EXPECT_EQ(latch.pending(), 0);
}

}  // namespace
}  // namespace bmr
