#include "core/partial_store.h"

#include <limits>

#include "core/kvstore.h"
#include "core/spill_merge_store.h"

namespace bmr::core {

const char* StoreTypeName(StoreType type) {
  switch (type) {
    case StoreType::kInMemory: return "in-memory";
    case StoreType::kSpillMerge: return "spill-merge";
    case StoreType::kKvStore: return "kv-store";
  }
  return "unknown";
}

std::unique_ptr<PartialStore> CreatePartialStore(const StoreConfig& config) {
  switch (config.type) {
    case StoreType::kInMemory: {  // §3.2: the memtable, never spilled
      StoreConfig never_spill = config;
      never_spill.spill_threshold_bytes = std::numeric_limits<uint64_t>::max();
      return std::make_unique<SpillMergeStore>(never_spill);
    }
    case StoreType::kSpillMerge:
      return std::make_unique<SpillMergeStore>(config);
    case StoreType::kKvStore:
      return std::make_unique<KvStoreBackend>(config);
  }
  return nullptr;
}

}  // namespace bmr::core
