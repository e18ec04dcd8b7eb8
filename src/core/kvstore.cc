#include "core/kvstore.h"

#include <algorithm>
#include <cstdio>

#include "common/hash.h"
#include "faults/fault_injector.h"

namespace bmr::core {

KvStoreBackend::KvStoreBackend(const StoreConfig& config)
    : config_(config),
      scratch_(config.scratch_dir),
      log_path_(scratch_.FilePath("kvlog")) {
  // A failed open is surfaced by CheckLog() on the first log access —
  // constructors can't return Status.
  log_ = std::fopen(log_path_.c_str(), "w+b");
}

Status KvStoreBackend::CheckLog() const {
  if (log_ != nullptr) return Status::Ok();
  return Status::Unavailable("kv store log failed to open: " + log_path_);
}

KvStoreBackend::~KvStoreBackend() {
  if (log_ != nullptr) std::fclose(log_);
}

Status KvStoreBackend::WriteToLog(Slice value, DiskLocation* loc) {
  BMR_RETURN_IF_ERROR(CheckLog());
  if (config_.fault_injector != nullptr) {
    BMR_RETURN_IF_ERROR(config_.fault_injector->OnSpillWrite(log_path_));
  }
  // fseeko: the log can exceed 2 GiB, so the offset must not be
  // narrowed through long (32-bit on LLP64 targets).
  if (::fseeko(log_, static_cast<off_t>(log_tail_), SEEK_SET) != 0) {
    return Status::Internal("kv log seek failed");
  }
  if (std::fwrite(value.data(), 1, value.size(), log_) != value.size()) {
    return Status::Internal("kv log write failed");
  }
  loc->offset = log_tail_;
  loc->length = static_cast<uint32_t>(value.size());
  loc->on_disk = true;
  loc->checksum = Fnv1a64(value);
  log_tail_ += value.size();
  return Status::Ok();
}

Status KvStoreBackend::ReadFromLog(const DiskLocation& loc,
                                   std::string* value) {
  BMR_RETURN_IF_ERROR(CheckLog());
  if (config_.fault_injector != nullptr) {
    BMR_RETURN_IF_ERROR(config_.fault_injector->OnSpillRead(log_path_));
  }
  if (::fseeko(log_, static_cast<off_t>(loc.offset), SEEK_SET) != 0) {
    return Status::Internal("kv log seek failed");
  }
  value->resize(loc.length);
  if (std::fread(value->data(), 1, loc.length, log_) != loc.length) {
    return Status::Internal("kv log short read");
  }
  if (config_.fault_injector != nullptr) {
    config_.fault_injector->MaybeCorruptSpill(value);
  }
  if (Fnv1a64(Slice(*value)) != loc.checksum) {
    return Status::DataLoss("kv log checksum mismatch: " + log_path_);
  }
  ++stats_.disk_reads;
  return Status::Ok();
}

Status KvStoreBackend::EvictIfNeeded() {
  while (cache_bytes_ > config_.kv_cache_bytes && !lru_.empty()) {
    CacheEntry& victim = lru_.back();
    if (victim.dirty) {
      auto idx = index_.find(victim.key);
      if (idx == index_.end()) {
        return Status::Internal("kv cache entry missing from index");
      }
      BMR_RETURN_IF_ERROR(WriteToLog(Slice(victim.value), &idx->second));
    }
    cache_bytes_ -= EntryFootprint(victim.key.size(), victim.value.size());
    // Heterogeneous erase is C++23; find-then-erase avoids a key copy.
    auto cidx = cache_index_.find(Slice(victim.key));
    if (cidx != cache_index_.end()) cache_index_.erase(cidx);
    lru_.pop_back();
    ++evictions_;
  }
  return Status::Ok();
}

Status KvStoreBackend::Fold(Slice key, Slice value,
                            IncrementalReducer* reducer,
                            mr::ReduceEmitter* out) {
  ++stats_.folds;
  auto hit = cache_index_.find(key);  // transparent: no key copy
  if (hit != cache_index_.end()) {
    lru_.splice(lru_.begin(), lru_, hit->second);  // most recent first
  } else {
    // Only a cache miss materializes an owning key.
    std::string partial;
    auto idx = index_.find(key);
    if (idx != index_.end() && idx->second.on_disk) {
      ++cache_misses_;
      BMR_RETURN_IF_ERROR(ReadFromLog(idx->second, &partial));
    } else {
      // New key: enter it in the directory (location filled on evict).
      index_.try_emplace(key.ToString());
      partial = reducer->InitPartial(key);
    }
    lru_.push_front(CacheEntry{key.ToString(), std::move(partial)});
    hit = cache_index_.emplace(lru_.front().key, lru_.begin()).first;
    cache_bytes_ += EntryFootprint(key.size(), lru_.front().value.size());
  }
  CacheEntry& entry = *hit->second;
  cache_bytes_ -= entry.value.size();
  reducer->Update(key, value, &entry.value, out);
  cache_bytes_ += entry.value.size();
  entry.dirty = true;
  stats_.peak_memory_bytes = std::max(stats_.peak_memory_bytes, cache_bytes_);
  // Eviction to make room may have to write back a dirty victim; a
  // failed write-back is lost data and must surface, not be swallowed.
  return EvictIfNeeded();
}

Status KvStoreBackend::ScanAll(const EmitFn& fn) {
  for (auto entry : SortedByKey(index_, KeyLess{config_.key_cmp})) {
    const auto& [key, loc] = *entry;
    auto hit = cache_index_.find(key);
    if (hit != cache_index_.end()) {
      fn(Slice(key), Slice(hit->second->value));
    } else if (loc.on_disk) {
      std::string value;
      BMR_RETURN_IF_ERROR(ReadFromLog(loc, &value));
      fn(Slice(key), Slice(value));
    } else {
      return Status::Internal("kv index entry with no value anywhere");
    }
  }
  return Status::Ok();
}

Status KvStoreBackend::ForEachMerged(const MergeFn& merge, const EmitFn& fn) {
  (void)merge;  // read-modify-update keeps one authoritative value per key
  BMR_RETURN_IF_ERROR(ScanAll(fn));
  index_.clear();
  cache_index_.clear();
  lru_.clear();
  cache_bytes_ = 0;
  return Status::Ok();
}

Status KvStoreBackend::ForEachCurrent(const MergeFn& merge,
                                      const EmitFn& fn) const {
  (void)merge;
  // Logically const: reads may page values in from the log and bump
  // statistics, but the key/value contents are unchanged.
  return const_cast<KvStoreBackend*>(this)->ScanAll(fn);
}

}  // namespace bmr::core
