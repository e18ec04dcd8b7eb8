// Per-job shuffle layer: owns the per-node map-output segment stores
// and their job-scoped RPC registration, the map-output tracker, and
// the reduce-side fetch machinery: kFetchCopies copier threads per
// reducer pull finished maps off the tracker's completion log (Hadoop's
// parallel copies, §3.1).  The with-barrier and barrier-less reduce
// paths run the *same* fetch code and differ only in the ShuffleSink
// they plug in: per-mapper buffers that complete at the barrier, or one
// bounded FIFO drained while copiers still produce.
//
// Fault tolerance (§ fault tolerance of the paper): a failed fetch is
// retried with capped exponential backoff; once retries are exhausted
// the map output is declared lost (tracker.ReportLost) and the engine
// re-executes the map task.  Because barrier-less reducers consume map
// output *before* the job ends, a reducer that already consumed a
// now-lost attempt is tainted: its sink is cancelled and the reduce
// task restarts from scratch — the restart cost the paper accepts in
// exchange for removing the barrier.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "common/block_container.h"
#include "common/codec.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "concurrency/bounded_queue.h"
#include "concurrency/thread_pool.h"
#include "faults/fault_injector.h"
#include "mr/map_output.h"
#include "mr/record_batch.h"
#include "mr/shuffle.h"
#include "net/transport.h"
#include "obs/metric_names.h"
#include "obs/trace.h"

namespace bmr::mr {

/// Default payload-byte budget of one FIFO batch (see FifoSink); the
/// `shuffle.batch_bytes` config knob overrides it per job.
inline constexpr uint64_t kDefaultShuffleBatchBytes = 256 << 10;
/// Default FIFO capacity in *batches* (`shuffle.fifo_batches` knob):
/// bounds reducer-side buffering at roughly capacity x batch budget.
inline constexpr size_t kDefaultShuffleFifoBatches = 64;
/// Copier threads per reducer fetch (Hadoop's reduce.parallel.copies).
inline constexpr int kFetchCopies = 4;

/// Destination of one reducer's fetched records.
class ShuffleSink {
 public:
  virtual ~ShuffleSink() = default;
  /// Deliver one mapper's decoded records as a zero-copy batch (the
  /// batch keeps the fetched segment alive).  Returns false once the
  /// sink has stopped accepting (job cancelled).
  virtual bool Accept(int map_task, RecordBatch batch) = 0;
  /// Every mapper's output has been delivered.
  virtual void AllDelivered() {}
  /// Unblock any producer or consumer immediately (job failure).
  virtual void Cancel() = 0;
};

/// With-barrier sink: per-mapper runs, consumed only after all arrive.
class BarrierSink final : public ShuffleSink {
 public:
  explicit BarrierSink(int num_map_tasks) : runs_(num_map_tasks) {}

  bool Accept(int map_task, RecordBatch batch) override {
    runs_[map_task] = std::move(batch);  // one producer per slot
    return true;
  }
  void Cancel() override {}  // copiers unblock via the tracker

  std::vector<RecordBatch>& runs() { return runs_; }

 private:
  std::vector<RecordBatch> runs_;
};

/// Barrier-less sink: the single FIFO buffer of §3.1; copiers push
/// while the reduce thread drains in arrival order.  The FIFO moves
/// byte-budgeted RecordBatches, not records: one mapper's segment is
/// carved into sub-batches of at most `batch_bytes` payload (sharing
/// the segment buffer) and enqueued under a single lock acquisition,
/// so per-record mutex/condvar traffic is gone from the data plane.
class FifoSink final : public ShuffleSink {
 public:
  explicit FifoSink(size_t capacity_batches,
                    uint64_t batch_bytes = kDefaultShuffleBatchBytes,
                    obs::Tracer* tracer = nullptr)
      : batch_bytes_(batch_bytes), tracer_(tracer), fifo_(capacity_batches) {}

  bool Accept(int map_task, RecordBatch batch) override {
    (void)map_task;
    if (batch.empty()) return !fifo_.closed();
    // Producer-side backpressure: time spent blocked on a full FIFO
    // (the reducer can't keep up) lands in its own histogram, distinct
    // from the consumer-side pop wait.
    obs::LatencyTimer wait(tracer_, obs::kHShuffleQueuePushWaitUs);
    return fifo_.PushAll(batch.SplitByBytes(batch_bytes_));
  }
  void AllDelivered() override { fifo_.Close(); }
  void Cancel() override { fifo_.Close(); }

  BoundedQueue<RecordBatch>& fifo() { return fifo_; }

 private:
  uint64_t batch_bytes_;
  obs::Tracer* tracer_;
  BoundedQueue<RecordBatch> fifo_;
};

/// Fetch-path tuning and fault hooks for a ShuffleService.  Namespace
/// scope (not nested) so it can serve as a defaulted `{}` argument —
/// g++ rejects that for nested classes with member initializers
/// (gcc bug 88165).
struct ShuffleOptions {
  /// Consulted before every fetch (timeout injection) and on every
  /// fetched segment (corruption).  Not owned; null = no injection.
  faults::FaultInjector* injector = nullptr;
  /// Failed fetches of one map attempt before its output is declared
  /// lost and the map re-executed.
  int max_fetch_retries = 4;
  /// Capped exponential backoff between fetch retries.
  double backoff_ms = 0.5;
  double backoff_max_ms = 8.0;
  /// Legacy behaviour: any fetch/decode error fails the job through
  /// ErrorFn instead of retrying.  Exists so the chaos harness can
  /// prove it detects a broken recovery path.
  bool fail_on_fetch_error = false;
  /// Fetch observability (shuffle.fetch spans + RTT histogram).  Not
  /// owned; null or disabled = no recording.
  obs::Tracer* tracer = nullptr;
  /// Block codec for published segments (`shuffle.codec` knob).  Null
  /// resolves from the BMR_SHUFFLE_CODEC env var, default "none" — so
  /// whole test binaries rerun compressed with one env var, mirroring
  /// BMR_NET_TRANSPORT.
  const Codec* codec = nullptr;
  /// Raw bytes per compression block (`shuffle.block_bytes` knob).
  size_t block_bytes = kDefaultShuffleBlockBytes;
};

class ShuffleService {
 public:
  /// Invoked when a fetcher discovers `map_task`'s committed output
  /// lost on `node` (node death): must arrange re-execution.  The
  /// engine's implementation clears the commit (TaskScheduler::
  /// ReopenTask) *before* queueing the new attempt, so a stale attempt
  /// can never double-commit against the re-execution.
  using RelaunchFn = std::function<void(int map_task, int node)>;
  /// Invoked on unrecoverable shuffle errors.  With the default
  /// options fetch errors are retried and then escalate to map
  /// re-execution, so this only fires when retry is disabled
  /// (Options::fail_on_fetch_error, the chaos harness' "broken
  /// recovery" mode).
  using ErrorFn = std::function<void(const Status&)>;

  using Options = ShuffleOptions;

  /// Registers a segment store for every node under the job-scoped
  /// fetch method, so concurrent jobs on one transport don't interfere.
  ShuffleService(net::Transport* transport, int num_nodes, int num_map_tasks,
                 int job_id, Options options = {});
  ~ShuffleService();  // unregisters the job's fetch handlers

  ShuffleService(const ShuffleService&) = delete;
  ShuffleService& operator=(const ShuffleService&) = delete;

  int job_id() const { return job_id_; }
  MapOutputTracker& tracker() { return tracker_; }
  /// Aggregate encode stats of every Publish that has returned (the
  /// engine exports them as the bmr_codec_* gauges at job end).
  SegmentEncodeStats encode_stats() const {
    return {encoded_raw_bytes_.load(), encoded_wire_bytes_.load()};
  }

  /// Publish one committed map attempt's per-partition segments from
  /// `node`, on the calling map thread: each raw record stream is
  /// encoded into the block container, every partition is stored, and
  /// only then is the task marked done.  When Publish returns the map
  /// is fetchable, and fetchers can never observe a half-stored task.
  void Publish(int map_task, int node, std::vector<std::string> segments);

  /// One reducer's in-flight fetch: kFetchCopies copiers deliver each
  /// map's segment into `sink` once.  The sink is registered for
  /// job-failure cancellation for exactly the lifetime of this object
  /// (RAII) — a reducer returning early can never leave a dangling sink
  /// behind for Cancel().
  class Fetch {
   public:
    ~Fetch();

    Fetch(const Fetch&) = delete;
    Fetch& operator=(const Fetch&) = delete;

    /// Block until every copier has exited.  Idempotent.
    void Join() { copiers_.Wait(); }
    uint64_t bytes_fetched() const { return bytes_.load(); }
    /// Fetch attempts that failed and were retried.
    uint64_t retries() const { return retries_.load(); }
    /// True once this fetch delivered records of a map attempt whose
    /// output was later declared lost: the consuming reduce task must
    /// restart (its sink has been cancelled).
    bool tainted() const { return tainted_.load(); }

   private:
    friend class ShuffleService;
    Fetch(ShuffleService* service, ShuffleSink* sink, int num_map_tasks)
        : service_(service), sink_(sink), delivered_(num_map_tasks, -1),
          undelivered_(num_map_tasks) {}

    ShuffleService* service_;
    ShuffleSink* sink_;
    MapOutputTracker::Cursor cursor_;  // shared by the copiers
    // Under service_->sinks_mu_: the attempt of each map this fetch
    // consumed (-1 = none) and the number of maps still to consume.
    std::vector<int> delivered_;
    int undelivered_;
    std::atomic<uint64_t> bytes_{0};
    std::atomic<uint64_t> retries_{0};
    std::atomic<bool> tainted_{false};
    std::atomic<int> copiers_left_{kFetchCopies};
    ThreadPool copiers_{kFetchCopies};  // outlives Join(): rejoin is a no-op
  };

  /// Start reducer `r` (running on `node`)'s fetch of every mapper's
  /// partition-`r` segment into `sink`.  `parent_span` (usually the
  /// reducer's task span) becomes the parent of every shuffle.fetch
  /// span — copiers run on their own threads, so the implicit
  /// same-thread parent chain can't reach them.
  std::unique_ptr<Fetch> StartFetch(int r, int node, ShuffleSink* sink,
                                    RelaunchFn relaunch, ErrorFn on_error,
                                    obs::SpanId parent_span = 0);

  /// Job failure: wake every tracker waiter and cancel every sink with
  /// a fetch in flight.
  ///
  /// Sinks are cancelled while sinks_mu_ is held: ~Fetch may destroy a
  /// sink the moment it leaves live_fetches_, so releasing the lock
  /// around the callback would race destruction.
  /// Sink::Cancel implementations must therefore never call back into
  /// ShuffleService (lock-order leaf; see docs/GUIDE.md).
  void Cancel() BMR_EXCLUDES(sinks_mu_);

 private:
  /// One copier: fetch log entries until the cursor stops or the job is
  /// cancelled; the last copier out signals AllDelivered.
  void RunCopier(Fetch* f, int r, int node, const RelaunchFn& relaunch,
                 const ErrorFn& on_error, obs::SpanId parent_span);
  /// Claim `map_task` attempt `version` for `fetch` unless it consumed
  /// an attempt of that map already; the last claim stops its cursor.
  bool NoteDelivered(Fetch* fetch, int map_task, int version)
      BMR_EXCLUDES(sinks_mu_);
  /// Map `map_task` attempt `version` was lost: taint and cancel every
  /// live fetch that already consumed it.  Same lock-order leaf rule
  /// as Cancel().
  void TaintConsumers(int map_task, int version) BMR_EXCLUDES(sinks_mu_);

  net::Transport* transport_;
  int num_nodes_;
  int job_id_;
  Options options_;
  MapOutputTracker tracker_;
  std::vector<std::unique_ptr<MapOutputStore>> stores_;
  std::atomic<uint64_t> encoded_raw_bytes_{0};
  std::atomic<uint64_t> encoded_wire_bytes_{0};

  OrderedMutex sinks_mu_{"mr.shuffle.sinks"};
  std::vector<Fetch*> live_fetches_ BMR_GUARDED_BY(sinks_mu_);
};

}  // namespace bmr::mr
