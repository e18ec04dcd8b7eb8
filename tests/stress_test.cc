// Shutdown-under-load stress for the concurrency primitives beneath
// the barrier-less shuffle: fault recovery cancels reduce attempts
// while producer threads are parked on a full FIFO and consumers on an
// empty one, so Close() must reliably unblock every waiter.  Run under
// tsan (scripts/check.sh tsan) to catch lost-wakeup and data races.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "concurrency/bounded_queue.h"
#include "concurrency/thread_pool.h"

namespace bmr {
namespace {

constexpr int kRounds = 25;

TEST(ShutdownStressTest, CloseUnblocksProducersParkedOnFullQueue) {
  for (int round = 0; round < kRounds; ++round) {
    BoundedQueue<int> queue(2);
    std::atomic<int> accepted{0};
    std::atomic<int> rejected{0};
    {
      ThreadPool pool(4);
      for (int p = 0; p < 4; ++p) {
        pool.Submit([&queue, &accepted, &rejected] {
          for (int i = 0; i < 1000; ++i) {
            if (queue.Push(i)) {
              accepted.fetch_add(1);
            } else {
              rejected.fetch_add(1);
              return;
            }
          }
        });
      }
      // Nobody pops, so the queue fills and every producer ends up
      // parked inside Push() on the not-full condition.
      while (queue.size() < queue.capacity()) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      queue.Close();
      pool.Wait();  // deadlocks here if Close() loses a wakeup
    }
    EXPECT_EQ(accepted.load(), 2) << "round " << round;
    EXPECT_EQ(rejected.load(), 4) << "round " << round;
    // Close() drains, not discards: the two accepted items survive.
    EXPECT_TRUE(queue.Pop().has_value());
    EXPECT_TRUE(queue.Pop().has_value());
    EXPECT_FALSE(queue.Pop().has_value());
  }
}

TEST(ShutdownStressTest, CloseUnblocksConsumersParkedOnEmptyQueue) {
  for (int round = 0; round < kRounds; ++round) {
    BoundedQueue<int> queue(8);
    std::atomic<int> finished{0};
    {
      ThreadPool pool(4);
      for (int c = 0; c < 4; ++c) {
        pool.Submit([&queue, &finished] {
          while (queue.Pop().has_value()) {
          }
          finished.fetch_add(1);
        });
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      queue.Close();
      pool.Wait();
    }
    EXPECT_EQ(finished.load(), 4) << "round " << round;
  }
}

// Producers, consumers, and an asynchronous Close() all racing — the
// shape of a reduce-attempt cancellation mid-shuffle.  Invariant:
// every record accepted by Push() before the close is popped exactly
// once (consumers drain until the closed-and-empty signal).
TEST(ShutdownStressTest, AsyncCloseNeverLosesAcceptedItems) {
  for (int round = 0; round < kRounds; ++round) {
    BoundedQueue<int> queue(4);
    std::atomic<int> accepted{0};
    std::atomic<int> popped{0};
    {
      ThreadPool pool(6);
      for (int p = 0; p < 3; ++p) {
        pool.Submit([&queue, &accepted] {
          for (int i = 0; i < 5000; ++i) {
            if (!queue.Push(i)) return;
            accepted.fetch_add(1);
          }
        });
      }
      for (int c = 0; c < 3; ++c) {
        pool.Submit([&queue, &popped] {
          while (queue.Pop().has_value()) popped.fetch_add(1);
        });
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1 + round % 3));
      queue.Close();
      pool.Wait();
    }
    EXPECT_EQ(popped.load(), accepted.load()) << "round " << round;
  }
}

// Batched data plane: several producers push record batches with
// PushAll while one consumer drains batch-wise with PopAll — the exact
// shape of the barrier-less shuffle's fetcher/reducer threads.
// Invariant: every item of every accepted batch arrives exactly once
// (batches are atomic: all-in or rejected whole).
TEST(BatchedQueueStressTest, PushAllPopAllDeliverEveryBatchExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kBatchesPerProducer = 300;
  constexpr int kBatchSize = 7;
  for (int round = 0; round < kRounds; ++round) {
    BoundedQueue<int> queue(3);  // tiny: constant full/empty transitions
    std::atomic<long> pushed_sum{0};
    long popped_sum = 0;
    long popped_count = 0;
    {
      ThreadPool pool(kProducers);
      for (int p = 0; p < kProducers; ++p) {
        pool.Submit([&queue, &pushed_sum, p] {
          for (int b = 0; b < kBatchesPerProducer; ++b) {
            std::vector<int> batch;
            long sum = 0;
            for (int i = 0; i < kBatchSize; ++i) {
              int v = p * 1000000 + b * 100 + i;
              batch.push_back(v);
              sum += v;
            }
            if (!queue.PushAll(std::move(batch))) return;
            pushed_sum.fetch_add(sum);
          }
        });
      }
      std::vector<int> drained;
      // Consumer runs on this thread; producers close nothing, so the
      // drain ends when every producer is done and the queue is empty.
      long expect =
          static_cast<long>(kProducers) * kBatchesPerProducer * kBatchSize;
      while (popped_count < expect) {
        drained.clear();
        size_t n = queue.PopAll(&drained);
        ASSERT_GT(n, 0u) << "queue closed early, round " << round;
        for (int v : drained) popped_sum += v;
        popped_count += static_cast<long>(n);
      }
      pool.Wait();
    }
    EXPECT_EQ(popped_count,
              static_cast<long>(kProducers) * kBatchesPerProducer * kBatchSize);
    EXPECT_EQ(popped_sum, pushed_sum.load()) << "round " << round;
    EXPECT_EQ(queue.size(), 0u);
  }
}

TEST(BatchedQueueStressTest, CloseUnblocksBatchProducersAndConsumers) {
  for (int round = 0; round < kRounds; ++round) {
    BoundedQueue<int> queue(2);
    std::atomic<int> producer_exits{0};
    std::atomic<int> consumer_exits{0};
    {
      ThreadPool pool(6);
      for (int p = 0; p < 3; ++p) {
        pool.Submit([&queue, &producer_exits] {
          while (queue.PushAll({1, 2, 3, 4, 5})) {
          }
          producer_exits.fetch_add(1);
        });
      }
      for (int c = 0; c < 3; ++c) {
        pool.Submit([&queue, &consumer_exits] {
          std::vector<int> out;
          while (queue.PopAll(&out) > 0) out.clear();
          consumer_exits.fetch_add(1);
        });
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1 + round % 3));
      queue.Close();
      pool.Wait();  // deadlocks if Close() loses a batched waiter
    }
    EXPECT_EQ(producer_exits.load(), 3) << "round " << round;
    EXPECT_EQ(consumer_exits.load(), 3) << "round " << round;
  }
}

// Mixed single-record and batched traffic against the transition-based
// not_full_ signalling: pops only notify on the full->not-full edge and
// producers cascade the wakeup, so every parked producer must still get
// through.  (Regression shape for the lost-wakeup this design risks.)
TEST(BatchedQueueStressTest, MixedSingleAndBatchedOpsMakeProgress) {
  for (int round = 0; round < kRounds; ++round) {
    BoundedQueue<int> queue(2);
    std::atomic<long> accepted{0};
    std::atomic<long> popped{0};
    {
      ThreadPool pool(6);
      for (int p = 0; p < 2; ++p) {
        pool.Submit([&queue, &accepted] {
          for (int i = 0; i < 2000; ++i) {
            if (!queue.Push(i)) return;
            accepted.fetch_add(1);
          }
        });
      }
      pool.Submit([&queue, &accepted] {
        for (int b = 0; b < 500; ++b) {
          if (!queue.PushAll({1, 2, 3, 4})) return;
          accepted.fetch_add(4);
        }
      });
      for (int c = 0; c < 2; ++c) {
        pool.Submit([&queue, &popped] {
          while (queue.Pop().has_value()) popped.fetch_add(1);
        });
      }
      pool.Submit([&queue, &popped] {
        std::vector<int> out;
        size_t n;
        while ((n = queue.PopAll(&out, /*max_items=*/3)) > 0) {
          popped.fetch_add(static_cast<long>(n));
          out.clear();
        }
      });
      // All producers finish only if no wakeup is ever lost; then close
      // so the consumers see the termination signal.
      while (accepted.load() < 2 * 2000 + 500 * 4) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      queue.Close();
      pool.Wait();
    }
    EXPECT_EQ(popped.load(), accepted.load()) << "round " << round;
  }
}

}  // namespace
}  // namespace bmr
