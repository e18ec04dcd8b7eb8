// Hash-indexed memtable partial-result store: the in-memory baseline
// of Section 3.2 and the disk spill-and-merge scheme of Section 5.1.
//
// Partial results accumulate in a memtable hashed by key; at the
// footprint threshold it is sorted into a new local spill file and
// memory is released.  A key may thus have fragments in several spill
// files plus the memtable; the final pass sorts the memtable, k-way
// merges it with every run and folds equal keys' fragments with the
// application's merge function (usually its combiner, as the paper
// notes).
//
// StoreType::kInMemory is this store with spilling switched off by the
// factory: the memtable stands in for the paper's TreeMap, and the
// heap cap is what kills the job in Fig. 5(a).  Until the first spill
// the store touches no filesystem.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "core/key_index.h"
#include "core/partial_store.h"
#include "core/scratch_dir.h"

namespace bmr::core {

class SpillMergeStore final : public PartialStore {
 public:
  explicit SpillMergeStore(const StoreConfig& config);

  [[nodiscard]] Status Fold(Slice key, Slice value,
                            IncrementalReducer* reducer,
                            mr::ReduceEmitter* out) override;
  uint64_t NumKeys() const override { return approx_keys_; }
  uint64_t MemoryBytes() const override { return memory_bytes_; }
  [[nodiscard]] Status ForEachMerged(const MergeFn& merge, const EmitFn& fn) override;
  [[nodiscard]] Status ForEachCurrent(const MergeFn& merge,
                        const EmitFn& fn) const override;
  const StoreStats& stats() const override { return stats_; }

  /// Exposed for tests/benches: force a spill regardless of threshold.
  [[nodiscard]] Status SpillNow();

 private:
  /// Shared k-way merge over spill files + memtable.  `drain` moves
  /// memtable entries out (the caller then clears the store).
  [[nodiscard]] Status MergeScan(const MergeFn& merge, const EmitFn& fn,
                                 bool drain);

  StoreConfig config_;
  /// Created by the first spill, so a store that never spills never
  /// touches the filesystem.
  std::optional<ScratchDir> scratch_;
  KeyLess key_less_;
  std::unordered_map<std::string, std::string, SliceHash, SliceEq> memtable_;
  uint64_t memory_bytes_ = 0;
  /// Upper bound on distinct keys (over-counts keys split across
  /// spills); exact count requires the merge pass.
  uint64_t approx_keys_ = 0;
  /// Each spill file's path and the byte count its writer reported.
  std::vector<std::pair<std::string, uint64_t>> spill_runs_;
  /// Fold target under a heap cap: a partial is updated here and
  /// swapped into the memtable only once its footprint fits.
  std::string fold_scratch_;
  StoreStats stats_;
};

}  // namespace bmr::core
