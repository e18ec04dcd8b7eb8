#include "service/pool_tree.h"

#include <limits>

namespace bmr::service {

PoolTree::PoolTree() {
  auto root = std::make_unique<Pool>();
  root->config.name = "root";
  root->config.parent.clear();
  root_ = root.get();
  pools_.emplace("root", std::move(root));
}

PoolTree::Pool* PoolTree::Find(const std::string& name) const {
  auto it = pools_.find(name);
  return it == pools_.end() ? nullptr : it->second.get();
}

Status PoolTree::AddPool(const PoolConfig& config) {
  if (config.name.empty()) {
    return Status::InvalidArgument("pool name must not be empty");
  }
  if (pools_.count(config.name) != 0) {
    return Status::AlreadyExists("pool already exists: " + config.name);
  }
  if (config.weight < 0) {
    return Status::InvalidArgument("pool weight must be >= 0: " + config.name);
  }
  Pool* parent = Find(config.parent);
  if (parent == nullptr) {
    return Status::NotFound("parent pool not found: " + config.parent);
  }
  if (!parent->queue.empty()) {
    return Status::FailedPrecondition(
        "parent pool holds queued jobs and must stay a leaf: " +
        config.parent);
  }
  auto pool = std::make_unique<Pool>();
  pool->config = config;
  pool->parent = parent;
  parent->children.push_back(pool.get());
  creation_order_.push_back(config.name);
  pools_.emplace(config.name, std::move(pool));
  return Status::Ok();
}

Status PoolTree::Enqueue(const std::string& name, uint64_t job) {
  Pool* pool = Find(name);
  if (pool == nullptr) return Status::NotFound("pool not found: " + name);
  if (!pool->children.empty()) {
    return Status::FailedPrecondition(
        "pool has child pools; submit to a leaf: " + name);
  }
  if (pool->queue.size() >= pool->config.queue_limit) {
    return Status::ResourceExhausted("pool queue full: " + name);
  }
  pool->queue.push_back(job);
  for (Pool* p = pool; p != nullptr; p = p->parent) ++p->subtree_queued;
  return Status::Ok();
}

bool PoolTree::StartNext(std::string* pool, uint64_t* job) {
  Pool* node = root_;
  while (!node->children.empty()) {
    // Deficit-first: the child furthest below its min_share guarantee.
    Pool* best = nullptr;
    int best_deficit = 0;
    for (Pool* c : node->children) {
      if (c->subtree_queued == 0) continue;
      if (c->config.max_share_slots >= 0 &&
          c->running >= c->config.max_share_slots) {
        continue;
      }
      int deficit = c->config.min_share_slots - c->running;
      if (deficit > 0 && (best == nullptr || deficit > best_deficit)) {
        best = c;
        best_deficit = deficit;
      }
    }
    if (best == nullptr) {
      // Weighted fair share: lowest running/weight among positive-
      // weight children with demand; ties broken by lowest cumulative
      // started/weight, so equal-ratio pools round-robin instead of
      // creation order winning every time (matters most on one slot,
      // where running/weight is 0 for every idle pool).  Zero-weight
      // children only run when no positive-weight child qualifies
      // (their ratios are +inf, so the strict < keeps any finite
      // ratio ahead of them).
      const double inf = std::numeric_limits<double>::infinity();
      double best_ratio = inf;
      double best_history = inf;
      for (Pool* c : node->children) {
        if (c->subtree_queued == 0) continue;
        if (c->config.max_share_slots >= 0 &&
            c->running >= c->config.max_share_slots) {
          continue;
        }
        double ratio = c->config.weight > 0
                           ? static_cast<double>(c->running) / c->config.weight
                           : inf;
        double history =
            c->config.weight > 0
                ? static_cast<double>(c->started) / c->config.weight
                : inf;
        if (best == nullptr || ratio < best_ratio ||
            (ratio == best_ratio && history < best_history)) {
          best = c;
          best_ratio = ratio;
          best_history = history;
        }
      }
    }
    if (best == nullptr) return false;
    node = best;
  }
  if (node->queue.empty()) return false;  // bare root, no demand
  *pool = node->config.name;
  *job = node->queue.front();
  node->queue.pop_front();
  for (Pool* p = node; p != nullptr; p = p->parent) {
    --p->subtree_queued;
    ++p->running;
    ++p->started;
  }
  return true;
}

void PoolTree::FinishJob(const std::string& name) {
  Pool* pool = Find(name);
  if (pool == nullptr) return;
  for (Pool* p = pool; p != nullptr; p = p->parent) {
    if (p->running > 0) --p->running;
  }
}

bool PoolTree::RemoveQueued(const std::string& name, uint64_t job) {
  Pool* pool = Find(name);
  if (pool == nullptr) return false;
  for (auto it = pool->queue.begin(); it != pool->queue.end(); ++it) {
    if (*it != job) continue;
    pool->queue.erase(it);
    for (Pool* p = pool; p != nullptr; p = p->parent) --p->subtree_queued;
    return true;
  }
  return false;
}

double PoolTree::QueueShare(size_t queued, double weight) {
  if (queued == 0) return 0;
  if (weight <= 0) return std::numeric_limits<double>::infinity();
  return static_cast<double>(queued) / weight;
}

bool PoolTree::PickPreemptionVictim(const std::string& for_pool,
                                    std::string* victim_pool,
                                    uint64_t* victim_job) {
  Pool* claimant = Find(for_pool);
  if (claimant == nullptr) return false;
  double claimant_share =
      QueueShare(claimant->queue.size() + 1, claimant->config.weight);

  Pool* victim = nullptr;
  double victim_share = claimant_share;
  for (const std::string& name : creation_order_) {
    Pool* p = Find(name);
    if (p == nullptr || p == claimant || p->queue.empty()) continue;
    double share = QueueShare(p->queue.size(), p->config.weight);
    // Strictly more over-share than the claimant would be: equal-share
    // pools never preempt each other (no churn between peers).
    if (share > victim_share) {
      victim = p;
      victim_share = share;
    }
  }
  if (victim == nullptr) return false;
  *victim_pool = victim->config.name;
  *victim_job = victim->queue.back();  // newest admitted loses
  victim->queue.pop_back();
  for (Pool* p = victim; p != nullptr; p = p->parent) --p->subtree_queued;
  return true;
}

bool PoolTree::HasPool(const std::string& pool) const {
  return Find(pool) != nullptr;
}

size_t PoolTree::queued(const std::string& pool) const {
  const Pool* p = Find(pool);
  return p == nullptr ? 0 : p->subtree_queued;
}

int PoolTree::running(const std::string& pool) const {
  const Pool* p = Find(pool);
  return p == nullptr ? 0 : p->running;
}

size_t PoolTree::total_queued() const { return root_->subtree_queued; }

int PoolTree::total_running() const { return root_->running; }

std::vector<PoolTree::PoolSnapshot> PoolTree::SnapshotPools() const {
  std::vector<PoolSnapshot> snapshots;
  for (const std::string& name : creation_order_) {
    const Pool* p = Find(name);
    if (p == nullptr || !p->children.empty()) continue;
    PoolSnapshot snap;
    snap.config = p->config;
    snap.queued = p->queue.size();
    snap.running = p->running;
    snap.started = p->started;
    snapshots.push_back(std::move(snap));
  }
  return snapshots;
}

}  // namespace bmr::service
