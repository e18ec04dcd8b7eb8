// In-memory partial-result store: the ordered-map (Java TreeMap)
// baseline of Section 3.2.  Fast, but fails with RESOURCE_EXHAUSTED
// when the estimated footprint crosses the heap cap — reproducing the
// Fig. 5(a) out-of-memory job kill.
#pragma once

#include <map>

#include "core/ordered_map.h"
#include "core/partial_store.h"

namespace bmr::core {

class InMemoryStore final : public PartialStore {
 public:
  explicit InMemoryStore(const StoreConfig& config);

  [[nodiscard]] Status Fold(Slice key, Slice value,
                            IncrementalReducer* reducer,
                            mr::ReduceEmitter* out) override;
  uint64_t NumKeys() const override { return map_.size(); }
  uint64_t MemoryBytes() const override { return memory_bytes_; }
  [[nodiscard]] Status ForEachMerged(const MergeFn& merge, const EmitFn& fn) override;
  [[nodiscard]] Status ForEachCurrent(const MergeFn& merge,
                        const EmitFn& fn) const override;
  const StoreStats& stats() const override { return stats_; }

 private:
  StoreConfig config_;
  OrderedPartialMap map_;
  uint64_t memory_bytes_ = 0;
  StoreStats stats_;
};

}  // namespace bmr::core
