// Cost-model calibration: measures the per-record costs of the real
// engine's hot paths (the barrier's merge + grouped reduce vs the
// barrier-less store fold) so the simulator's constants can be checked
// against this machine instead of being taken on faith.
//
// The measured machine differs from the paper's 2010-era Xeons, so the
// *absolute* constants in profiles.cc are period-calibrated; this
// module verifies the *ratios* that drive every result shape (e.g.
// barrier-less Sort costing more per record than the merge — the
// Fig. 6(a) mechanism).  The paper's TreeMap pays for key order on
// every insert; the real store folds through a hash index and sorts its
// keys in finalize, so the barrier-less cost counts both.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/partial_store.h"

namespace bmr::simmr {

struct MicroCosts {
  std::string workload;
  uint64_t records = 0;
  uint64_t distinct_keys = 0;
  /// Barrier path: k-way merge of sorted runs, per record.
  double merge_secs_per_record = 0;
  /// Barrier path: grouped reduce function application, per record.
  double grouped_reduce_secs_per_record = 0;
  /// Barrier-less path: every store fold plus the final ordered
  /// emission (where the key sort is paid), per record.
  double incremental_secs_per_record = 0;
  /// Barrier-less path: final ordered emission (the key sort included),
  /// per distinct key.
  double finalize_secs_per_key = 0;
};

/// Measure WordCount-shaped costs: `records` (word, 1) records over
/// `distinct` keys, Zipf-distributed, split into `runs` sorted runs for
/// the merge measurement.  Deterministic in `seed`.
MicroCosts MeasureAggregationCosts(uint64_t records, uint64_t distinct,
                                   int runs, uint64_t seed,
                                   core::StoreType store_type =
                                       core::StoreType::kInMemory);

/// Measure Sort-shaped costs: unique-ish keys, count partials — the
/// degenerate case where the barrier-less path loses to the merge.
MicroCosts MeasureSortCosts(uint64_t records, int runs, uint64_t seed);

}  // namespace bmr::simmr
