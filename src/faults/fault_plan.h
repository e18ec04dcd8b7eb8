// Seeded, deterministic fault schedules for the chaos harness.
//
// A FaultPlan is pure data: a list of fault events, each naming a hook
// point (RPC call site, shuffle fetch, spill I/O), an optional target
// node / method prefix, and a trigger threshold in hook invocations.
// Plans are either scripted by hand (targeted regression tests) or
// generated from a seed (chaos sweeps); Generate is a pure function of
// (seed, options), so a failing chaos scenario is reproduced exactly by
// its seed — see docs/GUIDE.md §8.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace bmr::faults {

enum class FaultKind {
  kRpcDrop,         // the call fails with UNAVAILABLE, handler never runs
  kRpcDelay,        // the call is held for delay_ms before dispatch
  kRpcDuplicate,    // the handler runs twice (at-least-once delivery)
  kNodeCrash,       // ClusterContext::KillNode(node) at a scheduled call
  kFetchTimeout,    // one shuffle fetch fails with UNAVAILABLE (timeout)
  kSegmentCorrupt,  // a fetched segment is truncated => decode fails
  kSpillWriteError, // SpillFileWriter::Append fails with UNAVAILABLE
  kSpillReadError,  // SpillFileReader::Next fails with UNAVAILABLE
  kSpillCorrupt,    // a spill container or KV log value read back has one
                    // byte flipped before its checksum is verified
};

const char* FaultKindName(FaultKind kind);

/// One scheduled fault.  `after_calls` counts matching hook invocations
/// before the event starts firing; `count` is how many consecutive
/// matching invocations it then claims.
struct FaultEvent {
  FaultKind kind = FaultKind::kRpcDrop;
  /// RPC faults: only calls whose method starts with this fire the
  /// event ("" = any method).  Ignored by non-RPC kinds.
  std::string method_prefix;
  /// Target node (RPC: destination; fetch faults: serving node;
  /// kNodeCrash: the node to kill).  -1 = any node (never for crash).
  int node = -1;
  uint64_t after_calls = 0;
  int count = 1;
  double delay_ms = 0;  // kRpcDelay only
};

struct FaultPlanOptions {
  int num_nodes = 4;
  /// Never crashed: it hosts the NameNode, which has no failover.
  int master_node = 0;
  int max_faults = 6;
  bool allow_crash = true;
  bool allow_rpc = true;
  bool allow_fetch = true;
  bool allow_spill = true;
};

struct FaultPlan {
  uint64_t seed = 0;
  std::vector<FaultEvent> events;

  /// Deterministic in (seed, options): same inputs, same plan.  At most
  /// one node crash per plan, never the master.  Duplicates target only
  /// the idempotent shuffle-fetch reads.
  static FaultPlan Generate(uint64_t seed, const FaultPlanOptions& options);

  /// Canonical text form, one event per line — the determinism
  /// regression fingerprint and the chaos failure report.
  std::string ToString() const;
};

}  // namespace bmr::faults
