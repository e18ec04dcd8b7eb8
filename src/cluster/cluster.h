// Cluster description shared by the real engine and the simulator.
//
// Defaults mirror the paper's testbed (§6): 16 nodes on Gigabit
// Ethernet — 1 master + 15 slaves, dual quad-core (8 cores), 16 GB RAM,
// 4 map + 4 reduce slots per slave, DFS replication 3, 64 MB chunks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"

namespace bmr::cluster {

struct NodeDesc {
  int id = 0;
  int map_slots = 4;
  int reduce_slots = 4;
  /// Relative CPU speed (1.0 = nominal).  Heterogeneity, the paper's
  /// future-work axis, scales per-record costs by 1/speed.
  double speed = 1.0;
  /// Heap available to each reduce task, bytes (JVM-style cap).
  uint64_t reduce_heap_bytes = 1400ull << 20;
  bool is_master = false;
};

struct ClusterSpec {
  std::vector<NodeDesc> nodes;
  double link_bytes_per_sec = 125e6;  // 1 GbE
  double oversubscription = 2.0;
  double disk_bytes_per_sec = 80e6;   // 2010-era SATA sequential
  int dfs_replication = 3;
  uint64_t dfs_block_bytes = 64ull << 20;
  /// Which net::Transport carries RPC and shuffle traffic: "inproc"
  /// (in-process registry, deterministic) or "tcp" (real loopback
  /// sockets).  Empty defers to the BMR_NET_TRANSPORT environment
  /// variable, then to "inproc".
  std::string transport;

  int num_slaves() const {
    int n = 0;
    for (const auto& nd : nodes) n += nd.is_master ? 0 : 1;
    return n;
  }
  int total_map_slots() const {
    int n = 0;
    for (const auto& nd : nodes) n += nd.is_master ? 0 : nd.map_slots;
    return n;
  }
  int total_reduce_slots() const {
    int n = 0;
    for (const auto& nd : nodes) n += nd.is_master ? 0 : nd.reduce_slots;
    return n;
  }
  /// Ids of the worker (non-master) nodes.
  std::vector<int> SlaveIds() const {
    std::vector<int> ids;
    for (const auto& nd : nodes) {
      if (!nd.is_master) ids.push_back(nd.id);
    }
    return ids;
  }
};

/// The paper's 16-node CCT configuration.
ClusterSpec PaperCluster();

/// A small homogeneous cluster for tests: `slaves` worker nodes plus a
/// master, with the given slot counts.
ClusterSpec SmallCluster(int slaves, int map_slots = 2, int reduce_slots = 2);

/// Apply multiplicative speed jitter: each slave's speed is drawn
/// uniformly from [1-spread, 1+spread].  spread=0 leaves the cluster
/// homogeneous.  Deterministic in `seed`.
void ApplyHeterogeneity(ClusterSpec* spec, double spread, uint64_t seed);

}  // namespace bmr::cluster
