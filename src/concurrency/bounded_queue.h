// Blocking MPMC bounded queue.  This is the single FIFO buffer at the
// heart of the barrier-less shuffle (Section 3.1 of the paper): a
// reducer's fetch copier threads push into one queue and one reduce
// thread drains it in arrival order.
//
// The hot path moves *batches*: PushAll/PopAll transfer a whole vector
// of items under one lock acquisition and at most one condition-variable
// wakeup, so the per-record mutex/condvar cycle of the naive design
// disappears from the shuffle->reduce data plane.  Producers blocked on
// a full queue are woken only when a pop actually crosses the
// full->not-full boundary; pops from a non-full queue signal nobody.
#pragma once

#include <deque>
#include <optional>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace bmr {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks while the queue is full.  Returns false iff the queue was
  /// closed before the item could be enqueued.
  bool Push(T item) BMR_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (!closed_ && items_.size() >= capacity_) not_full_.Wait(mu_);
    if (closed_) return false;
    items_.push_back(std::move(item));
    const bool room = items_.size() < capacity_;
    lock.Unlock();
    not_empty_.NotifyOne();
    // Cascade: pops only signal on the full->not-full *transition*, so a
    // woken producer that leaves room must pass the wakeup on, or a
    // second parked producer could sleep through available capacity.
    if (room) not_full_.NotifyOne();
    return true;
  }

  /// Enqueue every element of `batch` under one lock acquisition and
  /// one wakeup.  Blocks while the queue is full; once there is *any*
  /// room the whole batch goes in (the capacity is a backpressure
  /// watermark, not a hard ceiling — a batch may transiently overshoot
  /// it, bounded by one batch).  Returns false iff the queue was closed
  /// before the batch could be enqueued; the batch is consumed either
  /// way.
  bool PushAll(std::vector<T> batch) BMR_EXCLUDES(mu_) {
    if (batch.empty()) return !closed();
    MutexLock lock(mu_);
    while (!closed_ && items_.size() >= capacity_) not_full_.Wait(mu_);
    if (closed_) return false;
    const bool more_than_one = batch.size() > 1;
    for (T& item : batch) items_.push_back(std::move(item));
    const bool room = items_.size() < capacity_;
    lock.Unlock();
    // One wakeup per batch: a single consumer drains everything via
    // PopAll; with several consumers a multi-item batch must wake them
    // all or risk leaving work parked behind a single wakeup.
    if (more_than_one) {
      not_empty_.NotifyAll();
    } else {
      not_empty_.NotifyOne();
    }
    if (room) not_full_.NotifyOne();  // cascade, see Push
    return true;
  }

  /// Non-blocking push; returns false if full or closed.
  bool TryPush(T item) BMR_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (closed_ || items_.size() >= capacity_) return false;
    items_.push_back(std::move(item));
    lock.Unlock();
    not_empty_.NotifyOne();
    return true;
  }

  /// Blocks while the queue is empty.  Returns nullopt when the queue is
  /// closed *and* drained — the consumer's termination signal.
  std::optional<T> Pop() BMR_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (!closed_ && items_.empty()) not_empty_.Wait(mu_);
    if (items_.empty()) return std::nullopt;
    const bool was_full = items_.size() >= capacity_;
    T item = std::move(items_.front());
    items_.pop_front();
    const bool now_below = items_.size() < capacity_;
    lock.Unlock();
    if (was_full && now_below) not_full_.NotifyOne();
    return item;
  }

  /// Drain everything currently queued (at most `max_items`) into
  /// `*out` under one lock acquisition, blocking while the queue is
  /// empty and open.  Appends to `*out`.  Returns the number of items
  /// transferred; 0 means closed-and-drained — the consumer's
  /// termination signal.
  size_t PopAll(std::vector<T>* out, size_t max_items = SIZE_MAX)
      BMR_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (!closed_ && items_.empty()) not_empty_.Wait(mu_);
    if (items_.empty()) return 0;
    const bool was_full = items_.size() >= capacity_;
    size_t n = items_.size() < max_items ? items_.size() : max_items;
    for (size_t i = 0; i < n; ++i) {
      out->push_back(std::move(items_.front()));
      items_.pop_front();
    }
    const bool now_below = items_.size() < capacity_;
    lock.Unlock();
    // Only producers parked on a genuinely full queue need waking, and
    // a batched pop frees room for many of them at once.
    if (was_full && now_below) not_full_.NotifyAll();
    return n;
  }

  /// Non-blocking pop.
  std::optional<T> TryPop() BMR_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (items_.empty()) return std::nullopt;
    const bool was_full = items_.size() >= capacity_;
    T item = std::move(items_.front());
    items_.pop_front();
    const bool now_below = items_.size() < capacity_;
    lock.Unlock();
    if (was_full && now_below) not_full_.NotifyOne();
    return item;
  }

  /// After Close(), pushes fail and pops drain the remaining items.
  void Close() BMR_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      closed_ = true;
    }
    not_empty_.NotifyAll();
    not_full_.NotifyAll();
  }

  bool closed() const BMR_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return closed_;
  }

  size_t size() const BMR_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable Mutex mu_;
  CondVar not_empty_;
  CondVar not_full_;
  std::deque<T> items_ BMR_GUARDED_BY(mu_);
  bool closed_ BMR_GUARDED_BY(mu_) = false;
};

}  // namespace bmr
