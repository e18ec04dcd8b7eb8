// Core record and comparator types for the MapReduce engine.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "common/bytes.h"

namespace bmr::mr {

/// One intermediate or output record.  Keys and values are byte strings
/// (the Writable model): typed apps encode via common/serde.h.
struct Record {
  std::string key;
  std::string value;

  Record() = default;
  Record(std::string k, std::string v)
      : key(std::move(k)), value(std::move(v)) {}

  bool operator==(const Record& o) const {
    return key == o.key && value == o.value;
  }
};

/// Three-way key comparison; negative / zero / positive like memcmp.
using KeyCompareFn = std::function<int(Slice, Slice)>;

/// Partition assignment: key → [0, num_partitions).
using PartitionFn = std::function<int(Slice key, int num_partitions)>;

/// Named monotonically increasing counters, aggregated across tasks.
class Counters {
 public:
  void Add(const std::string& name, uint64_t delta) { values_[name] += delta; }
  uint64_t Get(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? 0 : it->second;
  }
  void MergeFrom(const Counters& other) {
    for (const auto& [k, v] : other.values_) values_[k] += v;
  }
  const std::map<std::string, uint64_t>& values() const { return values_; }

 private:
  std::map<std::string, uint64_t> values_;
};

// Counter names used by the engine.
inline constexpr const char* kCtrMapInputRecords = "map_input_records";
inline constexpr const char* kCtrMapOutputRecords = "map_output_records";
inline constexpr const char* kCtrMapOutputBytes = "map_output_bytes";
inline constexpr const char* kCtrCombineInputRecords = "combine_input_records";
inline constexpr const char* kCtrCombineOutputRecords = "combine_output_records";
inline constexpr const char* kCtrShuffleBytes = "shuffle_bytes";
inline constexpr const char* kCtrReduceInputRecords = "reduce_input_records";
inline constexpr const char* kCtrReduceOutputRecords = "reduce_output_records";
inline constexpr const char* kCtrSpills = "partial_result_spills";
inline constexpr const char* kCtrSpilledBytes = "partial_result_spilled_bytes";
inline constexpr const char* kCtrKvStoreOps = "kv_store_ops";
inline constexpr const char* kCtrMapTasksLaunched = "map_tasks_launched";
inline constexpr const char* kCtrMapTaskRetries = "map_task_retries";
inline constexpr const char* kCtrSpeculativeMapsLaunched =
    "speculative_maps_launched";
inline constexpr const char* kCtrSpeculativeMapsWon = "speculative_maps_won";
inline constexpr const char* kCtrMapAttemptsDiscarded =
    "map_attempts_discarded";
inline constexpr const char* kCtrMapTasksCommitted = "map_tasks_committed";
inline constexpr const char* kCtrShuffleFetchRetries =
    "shuffle_fetch_retries";
inline constexpr const char* kCtrReduceTaskRestarts = "reduce_task_restarts";
inline constexpr const char* kCtrJobRestarts = "job_restarts";

}  // namespace bmr::mr
