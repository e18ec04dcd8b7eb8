// Map-side output handling: partition, (optionally) sort, (optionally)
// combine, serialize into per-partition segments, and the per-node
// segment store that the shuffle fetches from over RPC.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/bytes.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "faults/fault_injector.h"
#include "mr/api.h"
#include "mr/job.h"
#include "mr/record_batch.h"
#include "mr/types.h"
#include "net/transport.h"

namespace bmr::mr {

/// Collects one map task's emitted records and finishes them into
/// per-partition serialized segments.  Record bytes are staged in an
/// arena (one bump allocation per record instead of two heap strings),
/// so the per-record global-allocator traffic of the map hot loop is
/// gone; the staged Slices live exactly one arena generation — Finish
/// serializes and retires them together.
class MapOutputCollector {
 public:
  MapOutputCollector(int num_partitions, PartitionFn partitioner);

  void Emit(Slice key, Slice value);

  struct Finished {
    /// One serialized segment per partition (framed records).
    std::vector<std::string> segments;
    uint64_t output_records = 0;
    uint64_t output_bytes = 0;
    uint64_t combine_in = 0;
    uint64_t combine_out = 0;
  };

  /// Sorts each partition by `sort_cmp` when `sort` is set (map-side
  /// sort: what makes the reduce-side merge of with-barrier Hadoop
  /// cheap), applies the combiner if given, and serializes.
  [[nodiscard]] StatusOr<Finished> Finish(bool sort, const KeyCompareFn& sort_cmp,
                            Combiner* combiner);

  uint64_t buffered_records() const;

 private:
  /// One staged record: views into arena_, valid for the generation
  /// that allocated them.
  struct Staged {
    Slice key;
    Slice value;
  };
  class CombineEmitter;

  std::vector<Staged> RunCombiner(std::vector<Staged> sorted,
                                  Combiner* combiner, const KeyCompareFn& cmp,
                                  uint64_t* in, uint64_t* out_count);

  int num_partitions_;
  PartitionFn partitioner_;
  Arena arena_;
  std::vector<std::vector<Staged>> buffers_;
};

/// Per-node storage of finished map-output segments — the "local disk"
/// the mappers write to and reducers remotely read from.  One instance
/// per node per job; fetch is exposed on the RPC transport under the
/// job-scoped method name ShuffleMethodName(job_id).
class MapOutputStore {
 public:
  /// Segments are held (and served) by shared pointer so pool-backed
  /// encoded buffers flow from ShuffleService::Publish to the RPC
  /// handler without a copy and recycle when the job's store dies.
  void Put(int map_task, int partition,
           std::shared_ptr<const std::string> segment) BMR_EXCLUDES(mu_);
  void Put(int map_task, int partition, std::string segment)
      BMR_EXCLUDES(mu_);
  [[nodiscard]] StatusOr<std::shared_ptr<const std::string>> Get(
      int map_task, int partition) const BMR_EXCLUDES(mu_);
  uint64_t stored_bytes() const BMR_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::map<std::pair<int, int>, std::shared_ptr<const std::string>> segments_
      BMR_GUARDED_BY(mu_);
  uint64_t stored_bytes_ BMR_GUARDED_BY(mu_) = 0;
};

/// RPC method name of job `job_id`'s shuffle service.  Fetches are
/// job-scoped so concurrent jobs on one shared cluster cannot clobber
/// or serve each other's segments.
std::string ShuffleMethodName(int job_id);

/// Register the shuffle-fetch handler for `store` on `node` under job
/// `job_id`.  Request: varint map_task, varint partition.  Response:
/// segment.  `injector` (may be null) is consulted once per served
/// segment at the wire boundary — the response bytes about to leave
/// the serving node — so corruption injection hits the same point on
/// both transports (on TCP the corrupted bytes really cross the
/// socket); the store copy stays intact for the retry.
void RegisterShuffleService(net::Transport* transport, int node,
                            MapOutputStore* store, int job_id = 0,
                            faults::FaultInjector* injector = nullptr);

/// Remove job `job_id`'s shuffle-fetch handler from `node`.
void UnregisterShuffleService(net::Transport* transport, int node, int job_id);

/// Client side of the shuffle fetch.
[[nodiscard]] Status FetchSegment(net::Transport* transport, int from_node, int at_node,
                    int map_task, int partition, std::string* segment,
                    int job_id = 0);

/// Decode a framed segment into records, appending to `out`.  Copies
/// every key and value; prefer the RecordBatch overload on hot paths.
[[nodiscard]] Status DecodeSegment(Slice segment, std::vector<Record>* out);

/// Zero-copy decode: `out` takes shared ownership of `segment` and its
/// entries are Slice views into it — no key or value bytes are copied.
/// `out` is reset first.
[[nodiscard]] Status DecodeSegment(std::shared_ptr<const std::string> segment,
                                   RecordBatch* out);

}  // namespace bmr::mr
