// Partial-result storage for barrier-less reducers (Section 5).
//
// Memory complexity of partial results ranges from O(1) to O(records)
// depending on the Reduce class (Table 1); for large inputs the reducer
// heap overflows, so storage is pluggable:
//
//   kInMemory   — §3.2: a memtable (the paper's TreeMap, here hashed
//                 and sorted at emission) that fails with
//                 RESOURCE_EXHAUSTED at the heap cap (reproduces the
//                 Fig. 5(a) OOM).  It is kSpillMerge, never spilling.
//   kSpillMerge — §5.1: on reaching a threshold, partial results are
//                 sorted and moved to a local spill file; a final k-way
//                 merge combines per-key fragments with the app's merge
//                 function.
//   kKvStore    — §5.2: a BerkeleyDB-like disk-spilling key/value store
//                 with an LRU cache; every record costs a read-modify-
//                 update cycle.
//
// The stores do real work at real speed and keep no modeled device
// time: simmr prices the paper-scale costs from its own StoreModel.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/bytes.h"
#include "common/status.h"
#include "core/incremental.h"
#include "mr/emitter.h"
#include "mr/types.h"

namespace bmr::faults {
class FaultInjector;  // faults/fault_injector.h; stores only carry it
}

namespace bmr::obs {
class Tracer;  // obs/trace.h; stores only carry it
}

namespace bmr::core {

enum class StoreType { kInMemory, kSpillMerge, kKvStore };

const char* StoreTypeName(StoreType type);

struct StoreConfig {
  StoreType type = StoreType::kInMemory;
  /// Hard heap cap for partial results (kInMemory, kSpillMerge): a fold
  /// whose footprint would exceed it is rejected with RESOURCE_EXHAUSTED
  /// before it touches the store (the job is killed, as in Fig. 5(a)),
  /// so each fold works on a copy.  0 = unlimited: folds run in place.
  uint64_t heap_limit_bytes = 0;
  /// kSpillMerge: spill to disk when estimated memory reaches this.
  /// kInMemory ignores it and never spills.
  uint64_t spill_threshold_bytes = 240ull << 20;  // paper's 240 MB
  /// Base directory for spill files / KV store logs ("" = std temp
  /// dir).  The spill-merge store creates its directory on the first
  /// spill, so kInMemory never touches it.
  std::string scratch_dir;
  /// kKvStore: LRU cache capacity in bytes.
  uint64_t kv_cache_bytes = 64ull << 20;
  /// Key ordering for final emission and spill sorting.  It only orders:
  /// key identity is byte equality, so it returns 0 only for equal bytes.
  mr::KeyCompareFn key_cmp;  // defaults to bytewise when null
  /// Optional fault injector consulted on every spill-file write/read
  /// (chaos testing).  Not owned; null = no injection.
  faults::FaultInjector* fault_injector = nullptr;
  /// Optional tracer: store.spill spans plus sampled Fold latency
  /// (recorded by the BarrierlessDriver).  Not owned; null = off.
  obs::Tracer* tracer = nullptr;
};

/// Estimated in-memory footprint of one (key, partial) entry: the
/// paper's JVM-era accounting (payload plus a TreeMap entry and object
/// headers), not this process's container cost.
inline uint64_t EntryFootprint(size_t key_size, size_t value_size) {
  constexpr uint64_t kPerEntryOverhead = 64;  // JVM TreeMap.Entry + headers
  return key_size + value_size + kPerEntryOverhead;
}

/// Cumulative statistics a store exposes for benches, job metrics and
/// tests.
struct StoreStats {
  uint64_t folds = 0;
  uint64_t spills = 0;           // spill-file flushes (0 for kInMemory)
  uint64_t spilled_bytes = 0;
  /// Records read back from disk: KV log page-ins, spill-run records.
  uint64_t disk_reads = 0;
  /// Largest in-memory footprint seen; a fold rejected at the heap cap
  /// does not move it.
  uint64_t peak_memory_bytes = 0;
};

/// Per-key partial-result storage.  Single-threaded: each reduce task
/// owns exactly one store (matching one store per Reducer in the paper).
class PartialStore {
 public:
  virtual ~PartialStore() = default;

  /// Fold one arriving record into `key`'s partial result with a single
  /// lookup: a key seen for the first time starts from
  /// `reducer->InitPartial(key)`, then `reducer->Update(key, value,
  /// &partial, out)` mutates the stored partial (a memtable under a heap
  /// cap folds a copy and keeps it only if it fits).  May return
  /// RESOURCE_EXHAUSTED (heap cap) or I/O errors — a disk-backed store
  /// may have to page the partial in, or evict a dirty victim to make
  /// room, and a failed victim write-back is data loss that must be
  /// loud, not swallowed.
  [[nodiscard]] virtual Status Fold(Slice key, Slice value,
                                    IncrementalReducer* reducer,
                                    mr::ReduceEmitter* out) = 0;

  /// Number of keys currently tracked (including spilled ones).
  virtual uint64_t NumKeys() const = 0;

  /// Estimated bytes of partial results currently held in memory.
  virtual uint64_t MemoryBytes() const = 0;

  /// Iterate every key in key order with its fully merged partial
  /// result, invoking `fn(key, partial)`.  `merge` combines fragments
  /// of the same key from different spills.  Destructive: the store is
  /// drained.  Called exactly once, after the last Update.
  using MergeFn = std::function<std::string(Slice key, Slice a, Slice b)>;
  using EmitFn = std::function<void(Slice key, Slice partial)>;
  [[nodiscard]] virtual Status ForEachMerged(const MergeFn& merge, const EmitFn& fn) = 0;

  /// Non-destructive variant: iterate the *current* merged partials in
  /// key order without draining the store, so folding can continue
  /// afterwards.  Powers progressive (online) result snapshots.
  [[nodiscard]] virtual Status ForEachCurrent(const MergeFn& merge,
                                const EmitFn& fn) const = 0;

  virtual const StoreStats& stats() const = 0;
};

/// Factory over StoreConfig.
std::unique_ptr<PartialStore> CreatePartialStore(const StoreConfig& config);

}  // namespace bmr::core
