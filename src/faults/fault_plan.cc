#include "faults/fault_plan.h"

#include <sstream>

#include "common/rng.h"

namespace bmr::faults {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kRpcDrop: return "rpc_drop";
    case FaultKind::kRpcDelay: return "rpc_delay";
    case FaultKind::kRpcDuplicate: return "rpc_duplicate";
    case FaultKind::kNodeCrash: return "node_crash";
    case FaultKind::kFetchTimeout: return "fetch_timeout";
    case FaultKind::kSegmentCorrupt: return "segment_corrupt";
    case FaultKind::kSpillWriteError: return "spill_write_error";
    case FaultKind::kSpillReadError: return "spill_read_error";
    case FaultKind::kSpillCorrupt: return "spill_corrupt";
  }
  return "?";
}

FaultPlan FaultPlan::Generate(uint64_t seed, const FaultPlanOptions& options) {
  FaultPlan plan;
  plan.seed = seed;
  Pcg32 rng(seed, /*stream=*/0xfa17u);

  // The drawable kinds under the options, in declaration order so the
  // plan depends only on (seed, options).
  std::vector<FaultKind> kinds;
  if (options.allow_rpc) {
    kinds.push_back(FaultKind::kRpcDrop);
    kinds.push_back(FaultKind::kRpcDelay);
    kinds.push_back(FaultKind::kRpcDuplicate);
  }
  if (options.allow_fetch) {
    kinds.push_back(FaultKind::kFetchTimeout);
    kinds.push_back(FaultKind::kSegmentCorrupt);
  }
  if (options.allow_spill) {
    kinds.push_back(FaultKind::kSpillWriteError);
    kinds.push_back(FaultKind::kSpillReadError);
    kinds.push_back(FaultKind::kSpillCorrupt);
  }
  if (options.allow_crash) kinds.push_back(FaultKind::kNodeCrash);
  if (kinds.empty() || options.max_faults < 1) return plan;

  int n = 1 + static_cast<int>(rng.NextBounded(
                  static_cast<uint32_t>(options.max_faults)));
  bool crashed = false;
  for (int i = 0; i < n; ++i) {
    FaultEvent e;
    e.kind = kinds[rng.NextBounded(static_cast<uint32_t>(kinds.size()))];
    if (e.kind == FaultKind::kNodeCrash) {
      // At most one crash per plan: with single-replica shuffle stores a
      // second concurrent loss can exceed what one retry wave recovers.
      if (crashed) {
        e.kind = FaultKind::kRpcDelay;
      } else {
        crashed = true;
      }
    }
    switch (e.kind) {
      case FaultKind::kNodeCrash: {
        // Any slave; the trigger counts every transport call, so small
        // thresholds make the crash land mid-job reliably.
        int node = 1 + static_cast<int>(rng.NextBounded(
                           static_cast<uint32_t>(options.num_nodes - 1)));
        if (node == options.master_node) node = options.num_nodes - 1;
        e.node = node;
        e.after_calls = rng.NextBounded(40);
        e.count = 1;
        break;
      }
      case FaultKind::kRpcDrop:
      case FaultKind::kRpcDelay: {
        // Bias towards the shuffle path but exercise the DFS too.
        static const char* kPrefixes[] = {"", "shuffle.fetch.", "dn."};
        e.method_prefix = kPrefixes[rng.NextBounded(3)];
        e.node = -1;
        e.after_calls = rng.NextBounded(120);
        e.count = 1 + static_cast<int>(rng.NextBounded(3));
        if (e.kind == FaultKind::kRpcDelay) {
          e.delay_ms = 1.0 + rng.NextBounded(5);
        }
        break;
      }
      case FaultKind::kRpcDuplicate:
        // Only the shuffle fetch is replay-safe (a pure read); nn/dn
        // mutations are not idempotent.
        e.method_prefix = "shuffle.fetch.";
        e.node = -1;
        e.after_calls = rng.NextBounded(30);
        e.count = 1 + static_cast<int>(rng.NextBounded(2));
        break;
      case FaultKind::kFetchTimeout:
      case FaultKind::kSegmentCorrupt:
        e.node = -1;
        e.after_calls = rng.NextBounded(20);
        e.count = 1 + static_cast<int>(rng.NextBounded(3));
        break;
      case FaultKind::kSpillWriteError:
      case FaultKind::kSpillReadError:
      case FaultKind::kSpillCorrupt:
        e.node = -1;
        e.after_calls = rng.NextBounded(10);
        e.count = 1;
        break;
    }
    plan.events.push_back(std::move(e));
  }
  return plan;
}

std::string FaultPlan::ToString() const {
  std::ostringstream out;
  out << "plan seed=" << seed << " events=" << events.size() << "\n";
  for (const FaultEvent& e : events) {
    out << "  " << FaultKindName(e.kind);
    if (!e.method_prefix.empty()) out << " method=" << e.method_prefix;
    if (e.node >= 0) out << " node=" << e.node;
    out << " after=" << e.after_calls << " count=" << e.count;
    if (e.delay_ms > 0) out << " delay_ms=" << e.delay_ms;
    out << "\n";
  }
  return out.str();
}

}  // namespace bmr::faults
