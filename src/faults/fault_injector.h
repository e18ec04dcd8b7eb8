// Thread-safe runtime for a FaultPlan: the hook points the substrates
// consult (net transport, shuffle fetch, spill I/O) plus a log of every
// fault that actually fired, for export into the job's counters and
// timeline.  The injector holds no references into the engine — node
// crashes go through a caller-bound callback, and the fault-log clock
// is whatever the host installs — so src/faults/ depends only on
// src/common/ and every layer above may depend on it.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "faults/fault_plan.h"

namespace bmr::faults {

class FaultInjector {
 public:
  /// Kill a node (ClusterContext binds this to KillNode).  Invoked with
  /// no injector lock held; may call back into any hook.
  using CrashFn = std::function<void(int node)>;
  /// Seconds since job start, for fault-log timestamps.
  using ClockFn = std::function<double()>;

  explicit FaultInjector(FaultPlan plan);
  ~FaultInjector();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  const FaultPlan& plan() const { return plan_; }

  void BindCrash(CrashFn fn) BMR_EXCLUDES(mu_);
  /// Installed per job run (and cleared after) so records carry the
  /// running job's clock; null stamps t=0.
  void SetClock(ClockFn fn) BMR_EXCLUDES(mu_);

  // ---- Hook points ---------------------------------------------------
  // Each hook counts one invocation against every matching event and
  // applies whatever fires.  All hooks are cheap no-ops for calls no
  // event matches.

  /// Transport Call, at the wire-send boundary.  May sleep (delay), crash a
  /// node (via the bound CrashFn), or fail the call (drop => the caller
  /// sees UNAVAILABLE).  `duplicates` out-param: how many extra times
  /// the transport should deliver the request (at-least-once delivery).
  [[nodiscard]] Status OnRpcCall(int src, int dst, const std::string& method,
                                 int* duplicates) BMR_EXCLUDES(mu_);

  /// Shuffle fetch, before the segment RPC.  Non-OK simulates a fetch
  /// timeout; the fetcher retries with backoff.
  [[nodiscard]] Status OnShuffleFetch(int from_node, int at_node,
                                      int map_task) BMR_EXCLUDES(mu_);

  /// At the serving node's wire boundary, on the response about to
  /// leave it: true => `segment` was truncated so the decode fails
  /// (corruption in flight; the store copy stays intact for the retry).
  /// Serving-side injection means both transports corrupt at the same
  /// point — on TCP the broken bytes really cross the socket.
  bool MaybeCorruptSegment(int from_node, int map_task,
                           std::string* segment) BMR_EXCLUDES(mu_);

  /// Spill-file I/O hooks.
  [[nodiscard]] Status OnSpillWrite(const std::string& path)
      BMR_EXCLUDES(mu_);
  [[nodiscard]] Status OnSpillRead(const std::string& path)
      BMR_EXCLUDES(mu_);

  /// Bit rot on read: called with a spill container or KV log value
  /// just read from disk, before its checksum is verified.  true =>
  /// one byte of `bytes` was flipped, so the verification fails (the
  /// file itself stays intact).
  bool MaybeCorruptSpill(std::string* bytes) BMR_EXCLUDES(mu_);

  // ---- Observability -------------------------------------------------
  struct FaultRecord {
    FaultKind kind;
    int node = -1;  // target node, -1 when the site has none
    double t = 0;   // host clock at firing
  };

  /// Everything that fired since the last drain (the engine drains per
  /// job run into its counters and timeline).
  std::vector<FaultRecord> DrainLog() BMR_EXCLUDES(mu_);

  /// Total firings per kind since construction ("fault_injected_<kind>").
  std::map<std::string, uint64_t> CounterSnapshot() const BMR_EXCLUDES(mu_);
  uint64_t injected(FaultKind kind) const BMR_EXCLUDES(mu_);

 private:
  void LogFired(FaultKind kind, int node) BMR_REQUIRES(mu_);

  FaultPlan plan_;
  mutable Mutex mu_;
  // Per-event trigger state lives in the .cc (faults::internal).
  struct State;
  std::unique_ptr<State> state_ BMR_GUARDED_BY(mu_);
  CrashFn crash_ BMR_GUARDED_BY(mu_);
  ClockFn clock_ BMR_GUARDED_BY(mu_);
  std::vector<FaultRecord> log_ BMR_GUARDED_BY(mu_);
  std::map<std::string, uint64_t> fired_ BMR_GUARDED_BY(mu_);
};

}  // namespace bmr::faults
