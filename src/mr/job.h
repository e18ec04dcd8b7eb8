// Job specification: everything the engine needs to run one MapReduce
// job in either with-barrier or barrier-less mode.
#pragma once

#include <string>
#include <vector>

#include "common/config.h"
#include "core/incremental.h"
#include "core/job_session.h"
#include "core/partial_store.h"
#include "mr/api.h"
#include "mr/textio.h"
#include "mr/types.h"

namespace bmr::mr {

enum class InputKind {
  kTextLines,  // newline-delimited; Map key = byte offset (decimal)
  kKvPairs,    // framed binary records; one split per file
};

struct JobSpec {
  std::string name = "job";

  // -- Input / output ---------------------------------------------------
  std::vector<std::string> input_files;
  InputKind input_kind = InputKind::kTextLines;
  /// Target split size; 0 = the DFS block size.
  uint64_t split_bytes = 0;
  /// Output directory; reducers write <output_path>/part-r-NNNNN.
  std::string output_path = "/out";
  /// Part-file encoding: lossless framed binary (default) or escaped
  /// TSV text for human consumption.
  OutputFormat output_format = OutputFormat::kFramedBinary;

  // -- User code --------------------------------------------------------
  MapperFactory mapper;
  /// Barrier mode reduce function.
  ReducerFactory reducer;
  /// Barrier-less single-record reduce function.
  core::IncrementalReducerFactory incremental;
  /// Optional map-side combiner.
  CombinerFactory combiner;

  // -- Shuffle shape ----------------------------------------------------
  int num_reducers = 1;
  /// Sort order of intermediate keys (with-barrier merge order, and
  /// the final-emission order of barrier-less stores).
  KeyCompareFn sort_cmp;   // null = bytewise
  /// Grouping comparator for secondary sort (kNN's barrier version
  /// groups by a key prefix).  Null = same as sort_cmp.
  KeyCompareFn group_cmp;
  PartitionFn partitioner;  // null = hash of whole key

  // -- Scheduling -------------------------------------------------------
  /// Hadoop-0.20-style backup tasks: launch a speculative copy of a
  /// straggler map task on another node; the first attempt to commit
  /// wins and the loser's output is discarded.
  bool speculative_maps = false;
  /// A running map attempt is a straggler once its runtime exceeds
  /// `speculation_slowness` x the median completed map runtime.
  double speculation_slowness = 1.5;
  /// Attempts younger than this many (wall-clock) seconds are never
  /// speculated.
  double speculation_min_runtime = 0.05;

  // -- Execution mode (the paper's setIncrementalReduction(true)) -------
  bool barrierless = false;
  /// Optional memoization session (§8 / DryadInc-style): barrier-less
  /// reduce tasks seed their partial-result stores from the previous
  /// run's snapshot for the same partition and save a fresh snapshot
  /// at the end.  Caller must keep num_reducers, partitioner, and key
  /// order stable across runs.  Not owned.
  core::JobSession* session = nullptr;
  core::StoreConfig store;

  Config config;
};

}  // namespace bmr::mr
