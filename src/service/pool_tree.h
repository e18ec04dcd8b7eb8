// Hierarchical fair-share pool tree for the multi-tenant job service
// (the ytsaurus scheduler_pool_server shape, scaled to this engine):
// tenants submit into leaf pools; every pool carries a weight, a
// min/max share in job slots, and a bounded queue of admitted jobs.
//
// Scheduling policy (docs/GUIDE.md §14), applied at every level of the
// tree when a slot frees:
//   1. children below their min_share (and with demand) go first,
//      largest deficit wins — min_share is a guarantee;
//   2. otherwise the child with the lowest running/weight ratio wins —
//      weighted fair share of the slots actually in use — with ties
//      broken by the lowest cumulative started/weight (historical
//      usage), so equal-weight pools round-robin even on one slot;
//   3. zero-weight children are leftover-only: they are picked only
//      when no positive-weight sibling has demand, so a flood from a
//      weight-0 tenant can never starve paying pools;
//   4. a child at its max_share cap is never picked, whatever its
//      ratio.
//
// Admission is fast-fail: a full pool queue bounces the submission
// instead of blocking the submitter.  When the service-wide queue
// bound is hit, PickPreemptionVictim selects the newest queued job of
// the most over-share pool (queued/weight), so a starved pool's
// submission evicts over-share queued work instead of being rejected.
//
// The tree itself is NOT internally synchronized: JobService guards
// every call with its own mutex (one lock, no ordering edges).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace bmr::service {

struct PoolConfig {
  std::string name;
  /// Parent pool; the tree root "root" always exists.
  std::string parent = "root";
  /// Fair-share weight at this level.  0 = leftover-only (runs only
  /// when no positive-weight sibling has demand).
  double weight = 1.0;
  /// Guaranteed concurrent job slots (deficit-first priority below it).
  int min_share_slots = 0;
  /// Concurrent job slot cap for the subtree; -1 = unlimited.
  int max_share_slots = -1;
  /// Bound on jobs admitted (queued, not yet running) in this leaf.
  size_t queue_limit = 64;
};

class PoolTree {
 public:
  PoolTree();

  PoolTree(const PoolTree&) = delete;
  PoolTree& operator=(const PoolTree&) = delete;

  /// Add a pool under an existing parent.  Fails on duplicate names,
  /// unknown parents, negative weights, and parents that already hold
  /// queued jobs (a queueing pool must stay a leaf).
  [[nodiscard]] Status AddPool(const PoolConfig& config);

  /// Admission: append `job` to `pool`'s queue.  Fast-fails with
  /// ResourceExhausted when the pool queue is at its bound, NotFound
  /// for unknown pools, FailedPrecondition for non-leaf pools.
  [[nodiscard]] Status Enqueue(const std::string& pool, uint64_t job);

  /// Pick the next job to start under the policy above, account it as
  /// running in its whole chain, and pop it from its queue.  Returns
  /// false when nothing is eligible (no demand, or every pool with
  /// demand is capped by max_share).
  bool StartNext(std::string* pool, uint64_t* job);

  /// A running job of `pool` finished (or failed): release its slot
  /// up the chain.
  void FinishJob(const std::string& pool);

  /// Remove a specific queued job (service shutdown cancels queued
  /// work).  Returns false when the job is not queued in `pool`.
  bool RemoveQueued(const std::string& pool, uint64_t job);

  /// Preemption: choose the newest queued job of the pool most over
  /// its queue share (queued/weight), strictly more over-share than
  /// `for_pool` would be after enqueueing one more job.  On success
  /// the victim is removed from its queue and reported; the caller
  /// owns failing it back to its submitter.
  bool PickPreemptionVictim(const std::string& for_pool,
                            std::string* victim_pool, uint64_t* victim_job);

  /// Point-in-time view of one leaf pool (the /jobs endpoint and
  /// service metrics; GUIDE §15).
  struct PoolSnapshot {
    PoolConfig config;
    size_t queued = 0;
    int running = 0;
    uint64_t started = 0;
  };

  // Introspection (service metrics, tests).
  [[nodiscard]] bool HasPool(const std::string& pool) const;
  size_t queued(const std::string& pool) const;
  int running(const std::string& pool) const;
  size_t total_queued() const;
  int total_running() const;
  /// Snapshots of every leaf pool, in creation order.
  std::vector<PoolSnapshot> SnapshotPools() const;

 private:
  struct Pool {
    PoolConfig config;
    Pool* parent = nullptr;
    std::vector<Pool*> children;  // creation order = tie-break order
    std::deque<uint64_t> queue;   // leaves only; front = oldest
    size_t subtree_queued = 0;
    int running = 0;           // running jobs in the subtree
    uint64_t started = 0;      // jobs ever started in the subtree
  };

  Pool* Find(const std::string& name) const;
  /// Queue-share ratio used by preemption: queued/weight, +inf for
  /// zero-weight pools with queued work.
  static double QueueShare(size_t queued, double weight);

  std::map<std::string, std::unique_ptr<Pool>> pools_;
  std::vector<std::string> creation_order_;
  Pool* root_;
};

}  // namespace bmr::service
