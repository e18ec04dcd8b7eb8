#include "core/inmemory_store.h"

#include <algorithm>

namespace bmr::core {

InMemoryStore::InMemoryStore(const StoreConfig& config)
    : config_(config), map_(MakeOrderedPartialMap(config.key_cmp)) {}

Status InMemoryStore::Fold(Slice key, Slice value, IncrementalReducer* reducer,
                           mr::ReduceEmitter* out) {
  ++stats_.folds;
  // Transparent lower_bound: the owning key string is materialized only
  // on a genuine insert, never on an update.
  auto it = map_.lower_bound(key);
  if (it == map_.end() || map_.key_comp()(key, it->first)) {
    it = map_.emplace_hint(it, key.ToString(), reducer->InitPartial(key));
    memory_bytes_ += EntryFootprint(key.size(), it->second.size());
  }
  // Fold in place; account for the value-size delta only.
  memory_bytes_ -= it->second.size();
  reducer->Update(key, value, &it->second, out);
  memory_bytes_ += it->second.size();
  stats_.peak_memory_bytes = std::max(stats_.peak_memory_bytes, memory_bytes_);
  if (config_.heap_limit_bytes != 0 &&
      memory_bytes_ > config_.heap_limit_bytes) {
    // The JVM analogue throws OutOfMemoryError and the job is killed
    // (Fig. 5a).  Reported as a status so the engine can record the
    // failure time.
    return Status::ResourceExhausted(
        "partial results exceed reducer heap (" +
        std::to_string(memory_bytes_) + " > " +
        std::to_string(config_.heap_limit_bytes) + " bytes)");
  }
  return Status::Ok();
}

Status InMemoryStore::ForEachMerged(const MergeFn& merge, const EmitFn& fn) {
  BMR_RETURN_IF_ERROR(ForEachCurrent(merge, fn));
  map_.clear();
  memory_bytes_ = 0;
  return Status::Ok();
}

Status InMemoryStore::ForEachCurrent(const MergeFn& merge,
                                     const EmitFn& fn) const {
  (void)merge;  // a single in-memory fragment per key: nothing to merge
  for (const auto& [key, partial] : map_) {
    fn(Slice(key), Slice(partial));
  }
  return Status::Ok();
}

}  // namespace bmr::core
