// Zero-copy record batches for the shuffle->reduce data plane.
//
// A fetched map-output segment is decoded once into a RecordBatch: the
// segment buffer is kept alive by shared ownership and every record is
// a pair of Slice views into it.  Batches (and the sub-batches
// SplitByBytes carves out) travel through the shuffle sink and the
// reduce FIFO without re-copying key or value bytes; the only heap
// traffic per segment is the entry vector.
//
// Lifetime rule: a Slice handed out by a RecordBatch is valid exactly
// as long as *some* RecordBatch sharing the buffer is alive.  Consumers
// that need bytes beyond the batch's lifetime (partial stores, output
// buffers) must copy — everything upstream of them must not.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "mr/types.h"

namespace bmr::mr {

class RecordBatch {
 public:
  struct Entry {
    Slice key;
    Slice value;
  };

  RecordBatch() = default;

  /// An empty batch taking shared ownership of `buffer`; Add entries
  /// whose slices point into it.
  explicit RecordBatch(std::shared_ptr<const std::string> buffer)
      : buffer_(std::move(buffer)) {}

  /// Append one record view.  `key`/`value` must point into (or
  /// outlive) the shared buffer — see the lifetime rule above.
  void Add(Slice key, Slice value) {
    payload_bytes_ += key.size() + value.size();
    entries_.push_back(Entry{key, value});
  }

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  /// Total key+value payload bytes across all entries.
  uint64_t payload_bytes() const { return payload_bytes_; }

  const Entry& operator[](size_t i) const { return entries_[i]; }
  std::vector<Entry>::const_iterator begin() const { return entries_.begin(); }
  std::vector<Entry>::const_iterator end() const { return entries_.end(); }

  const std::shared_ptr<const std::string>& buffer() const { return buffer_; }

  /// Carve this batch into consecutive sub-batches of at most `budget`
  /// payload bytes each (every sub-batch holds at least one record, so
  /// a record larger than the budget travels alone).  Sub-batches share
  /// the buffer — no bytes are copied.
  std::vector<RecordBatch> SplitByBytes(uint64_t budget) const {
    std::vector<RecordBatch> out;
    if (entries_.empty()) return out;
    if (budget == 0 || payload_bytes_ <= budget) {
      out.push_back(*this);
      return out;
    }
    RecordBatch current(buffer_);
    for (const Entry& e : entries_) {
      uint64_t entry_bytes = e.key.size() + e.value.size();
      if (!current.empty() &&
          current.payload_bytes() + entry_bytes > budget) {
        out.push_back(std::move(current));
        current = RecordBatch(buffer_);
      }
      current.Add(e.key, e.value);
    }
    if (!current.empty()) out.push_back(std::move(current));
    return out;
  }

  /// Materialize owned Records (the with-barrier sort/merge path and
  /// tests; the barrier-less hot path never calls this).
  std::vector<Record> ToRecords() const {
    std::vector<Record> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_) {
      out.emplace_back(e.key.ToString(), e.value.ToString());
    }
    return out;
  }

 private:
  std::shared_ptr<const std::string> buffer_;
  std::vector<Entry> entries_;
  uint64_t payload_bytes_ = 0;
};

}  // namespace bmr::mr
