// Disk-spilling key/value store backend (Section 5.2).
//
// Stands in for BerkeleyDB Java Edition: a bounded LRU cache in front
// of an append-only on-disk log, with an in-memory index (BDB keeps its
// B-tree inner nodes resident the same way).  Every reduce record costs
// a read-modify-update cycle through this store; the paper measured
// ~30k inserts/s, far below the record rate of a wordcount reducer,
// which is why this scheme loses in Figs. 9–10.  This store reproduces
// the mechanism with real disk I/O at real speed; the paper-scale
// throughput collapse is simmr's to model, from its StoreModel's
// calibrated ops/sec.
#pragma once

#include <cstdio>
#include <list>
#include <string>
#include <unordered_map>

#include "core/key_index.h"
#include "core/partial_store.h"
#include "core/scratch_dir.h"

namespace bmr::core {

class KvStoreBackend final : public PartialStore {
 public:
  explicit KvStoreBackend(const StoreConfig& config);
  ~KvStoreBackend() override;

  [[nodiscard]] Status Fold(Slice key, Slice value,
                            IncrementalReducer* reducer,
                            mr::ReduceEmitter* out) override;
  uint64_t NumKeys() const override { return index_.size(); }
  uint64_t MemoryBytes() const override { return cache_bytes_; }
  [[nodiscard]] Status ForEachMerged(const MergeFn& merge, const EmitFn& fn) override;
  [[nodiscard]] Status ForEachCurrent(const MergeFn& merge,
                        const EmitFn& fn) const override;
  const StoreStats& stats() const override { return stats_; }

  uint64_t cache_misses() const { return cache_misses_; }
  uint64_t evictions() const { return evictions_; }

 private:
  struct DiskLocation {
    uint64_t offset = 0;
    uint32_t length = 0;
    bool on_disk = false;  // false => value only exists in cache
    uint64_t checksum = 0;  // Fnv1a64 of the bytes written, checked on read
  };
  struct CacheEntry {
    std::string key;
    std::string value;
    bool dirty = false;
  };
  using LruList = std::list<CacheEntry>;

  [[nodiscard]] Status ScanAll(const EmitFn& fn);
  [[nodiscard]] Status EvictIfNeeded();
  [[nodiscard]] Status WriteToLog(Slice value, DiskLocation* loc);
  [[nodiscard]] Status ReadFromLog(const DiskLocation& loc, std::string* value);
  /// Ok iff the backing log file opened; otherwise an explanatory error.
  [[nodiscard]] Status CheckLog() const;

  StoreConfig config_;
  ScratchDir scratch_;
  std::string log_path_;
  std::FILE* log_ = nullptr;
  uint64_t log_tail_ = 0;

  LruList lru_;  // front = most recent
  std::unordered_map<std::string, LruList::iterator, SliceHash, SliceEq>
      cache_index_;
  uint64_t cache_bytes_ = 0;

  /// Key directory: key → latest on-disk location (if any).  Hashed
  /// like the cache; ScanAll sorts a view of it for ordered emission.
  std::unordered_map<std::string, DiskLocation, SliceHash, SliceEq> index_;

  uint64_t cache_misses_ = 0;
  uint64_t evictions_ = 0;
  StoreStats stats_;
};

}  // namespace bmr::core
