#include "core/spill_merge_store.h"

#include <algorithm>

#include "core/spill_file.h"
#include "obs/metric_names.h"
#include "obs/trace.h"

namespace bmr::core {

SpillMergeStore::SpillMergeStore(const StoreConfig& config)
    : config_(config), key_less_{config.key_cmp} {}

Status SpillMergeStore::Fold(Slice key, Slice value,
                             IncrementalReducer* reducer,
                             mr::ReduceEmitter* out) {
  ++stats_.folds;
  // Only the memtable is consulted: spilled fragments stay on disk and
  // are reconciled in the merge phase.  A key that was spilled restarts
  // from InitPartial, exactly as in the paper's scheme.
  auto it = memtable_.find(key);  // transparent: no key copy
  bool exists = it != memtable_.end();
  if (config_.heap_limit_bytes == 0) {
    // No cap can reject the fold: update the stored partial in place.
    if (!exists) {
      it = memtable_.emplace(key.ToString(), reducer->InitPartial(key)).first;
      ++approx_keys_;
      memory_bytes_ += EntryFootprint(key.size(), it->second.size());
    }
    memory_bytes_ -= it->second.size();
    reducer->Update(key, value, &it->second, out);
    memory_bytes_ += it->second.size();
  } else {
    // Fold into scratch and check the cap on the *prospective*
    // footprint: a rejected fold must leave the store (keys, bytes,
    // peak stats) exactly as it found it, so the OOM boundary is
    // observable and consistent.
    if (exists) {
      fold_scratch_.assign(it->second);  // reuses the scratch buffer
    } else {
      fold_scratch_ = reducer->InitPartial(key);
    }
    reducer->Update(key, value, &fold_scratch_, out);
    uint64_t new_bytes =
        exists ? memory_bytes_ + fold_scratch_.size() - it->second.size()
               : memory_bytes_ +
                     EntryFootprint(key.size(), fold_scratch_.size());
    if (new_bytes > config_.heap_limit_bytes) {
      return Status::ResourceExhausted(
          "partial results exceed reducer heap (" + std::to_string(new_bytes) +
          " > " + std::to_string(config_.heap_limit_bytes) + " bytes)");
    }
    if (!exists) {
      it = memtable_.emplace(key.ToString(), std::string()).first;
      ++approx_keys_;
    }
    // Swap rather than copy: the old partial's buffer becomes the next
    // fold's scratch.
    it->second.swap(fold_scratch_);
    memory_bytes_ = new_bytes;
  }
  stats_.peak_memory_bytes = std::max(stats_.peak_memory_bytes, memory_bytes_);
  return memory_bytes_ >= config_.spill_threshold_bytes ? SpillNow()
                                                        : Status::Ok();
}

Status SpillMergeStore::SpillNow() {
  if (memtable_.empty()) return Status::Ok();
  // A spill is rare and expensive (sort + write of the whole memtable),
  // so it earns both a span and an unsampled latency sample.
  obs::ScopedSpan spill_span(config_.tracer, obs::kSpanStoreSpill, "store",
                             static_cast<int64_t>(spill_runs_.size()));
  obs::LatencyTimer spill_latency(config_.tracer, obs::kHStoreSpillUs);
  if (!scratch_) scratch_.emplace(config_.scratch_dir);
  std::string path =
      scratch_->FilePath("spill_" + std::to_string(spill_runs_.size()));
  SpillFileWriter writer(path, config_.fault_injector);
  for (auto entry : SortedByKey(memtable_, key_less_)) {
    BMR_RETURN_IF_ERROR(
        writer.Append(Slice(entry->first), Slice(entry->second)));
  }
  BMR_RETURN_IF_ERROR(writer.Close());
  spill_runs_.emplace_back(std::move(path), writer.bytes_written());
  ++stats_.spills;
  stats_.spilled_bytes += writer.bytes_written();
  memtable_.clear();
  memory_bytes_ = 0;
  return Status::Ok();
}

Status SpillMergeStore::ForEachMerged(const MergeFn& merge, const EmitFn& fn) {
  BMR_RETURN_IF_ERROR(MergeScan(merge, fn, /*drain=*/true));
  memtable_.clear();
  memory_bytes_ = 0;
  approx_keys_ = 0;
  return Status::Ok();
}

Status SpillMergeStore::ForEachCurrent(const MergeFn& merge,
                                       const EmitFn& fn) const {
  // Logically const: the scan re-opens the spill files read-only and
  // copies the memtable; only statistics counters move.
  return const_cast<SpillMergeStore*>(this)->MergeScan(merge, fn, false);
}

Status SpillMergeStore::MergeScan(const MergeFn& merge, const EmitFn& fn,
                                  bool drain) {
  auto sorted = SortedByKey(memtable_, key_less_);
  // Nothing spilled: the sorted memtable is the only run.
  if (spill_runs_.empty()) {
    for (auto entry : sorted) fn(Slice(entry->first), Slice(entry->second));
    return Status::Ok();
  }
  // Merge heads: every spill file plus the sorted memtable, all in key
  // order.  Standard loser-tree-free k-way merge over a heap.
  struct Head {
    std::string key;
    std::string value;
    size_t source;  // spill index, or spills.size() for the memtable
  };
  // Heap orders by (key asc, source asc) — source order keeps the merge
  // fold deterministic (spill order, then memtable), matching the order
  // in which the fragments were produced.
  auto head_greater = [this](const Head& a, const Head& b) {
    if (key_less_(Slice(a.key), Slice(b.key))) return false;
    if (key_less_(Slice(b.key), Slice(a.key))) return true;
    return a.source > b.source;
  };
  // A plain vector under push_heap/pop_heap, so the popped head can be
  // moved out rather than copied from a priority_queue's const top().
  std::vector<Head> heap;
  auto push_head = [&](Head h) {
    heap.push_back(std::move(h));
    std::push_heap(heap.begin(), heap.end(), head_greater);
  };

  std::vector<SpillFileReader> readers;
  readers.reserve(spill_runs_.size());
  for (const auto& [path, bytes] : spill_runs_) {
    readers.emplace_back(path, bytes, config_.fault_injector);
  }
  auto advance_reader = [&](size_t idx) -> Status {
    Head h;
    h.source = idx;
    bool has;
    BMR_RETURN_IF_ERROR(readers[idx].Next(&h.key, &h.value, &has));
    if (has) {
      ++stats_.disk_reads;
      push_head(std::move(h));
    }
    return Status::Ok();
  };
  for (size_t i = 0; i < readers.size(); ++i) {
    BMR_RETURN_IF_ERROR(advance_reader(i));
  }
  size_t next_entry = 0;
  auto push_memtable_head = [&] {
    if (next_entry == sorted.size()) return;
    auto entry = sorted[next_entry++];
    if (drain) {  // extracting one entry leaves the other iterators valid
      auto node = memtable_.extract(entry);
      push_head(Head{std::move(node.key()), std::move(node.mapped()),
                     spill_runs_.size()});
    } else {
      push_head(Head{entry->first, entry->second, spill_runs_.size()});
    }
  };
  push_memtable_head();

  std::string current_key;
  std::string current_partial;
  bool have_current = false;
  auto flush_current = [&] {
    if (have_current) fn(Slice(current_key), Slice(current_partial));
    have_current = false;
  };

  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), head_greater);
    Head h = std::move(heap.back());
    heap.pop_back();
    if (h.source < readers.size()) {
      BMR_RETURN_IF_ERROR(advance_reader(h.source));
    } else {
      push_memtable_head();
    }
    if (have_current && current_key == h.key) {  // identity is byte equality
      current_partial =
          merge ? merge(Slice(h.key), Slice(current_partial), Slice(h.value))
                : std::move(h.value);
    } else {
      flush_current();
      current_key = std::move(h.key);
      current_partial = std::move(h.value);
      have_current = true;
    }
  }
  flush_current();
  return Status::Ok();
}

}  // namespace bmr::core
