#include "mr/task_executor.h"

#include <utility>
#include <cstdio>

#include "core/barrierless_driver.h"
#include "mr/map_output.h"
#include "mr/textio.h"
#include "obs/metric_names.h"
#include "obs/trace.h"

namespace bmr::mr {

namespace {

constexpr uint64_t kMemorySampleEvery = 2048;

/// Concrete MapContext: forwards emits to the collector.
class MapCtx final : public MapContext {
 public:
  MapCtx(MapOutputCollector* collector, const Config& config,
         Counters* counters)
      : collector_(collector), config_(config), counters_(counters) {}

  void Emit(Slice key, Slice value) override { collector_->Emit(key, value); }
  const Config& config() const override { return config_; }
  Counters* counters() override { return counters_; }

 private:
  MapOutputCollector* collector_;
  const Config& config_;
  Counters* counters_;
};

}  // namespace

/// Concrete ReduceContext: buffers output records.
class ReduceTaskContext final : public ReduceContext {
 public:
  ReduceTaskContext(const Config& config, Counters* counters)
      : config_(config), counters_(counters) {}

  void Emit(Slice key, Slice value) override {
    out_.emplace_back(key.ToString(), value.ToString());
  }
  const Config& config() const override { return config_; }
  Counters* counters() override { return counters_; }

  std::vector<Record>& records() { return out_; }

 private:
  std::vector<Record> out_;
  const Config& config_;
  Counters* counters_;
};

namespace {

/// ReduceEmitter adapter over ReduceTaskContext for the barrier-less
/// driver.
class CtxEmitter final : public ReduceEmitter {
 public:
  explicit CtxEmitter(ReduceTaskContext* ctx) : ctx_(ctx) {}
  void Emit(Slice key, Slice value) override { ctx_->Emit(key, value); }

 private:
  ReduceTaskContext* ctx_;
};

}  // namespace

void MapTaskExecutor::Execute(TaskScheduler::Attempt attempt) {
  if (control_->cancelled()) return;
  if (attempt.node < 0) {
    control_->Fail(Status::Unavailable("no node available for map task"));
    return;
  }
  scheduler_->Begin(attempt, metrics_->Now());
  // Pool threads have no open span, so this parents to the job span.
  obs::ScopedSpan task_span(metrics_->tracer(), obs::kSpanMapTask, "task",
                            attempt.task);
  double start = metrics_->Now();
  Counters local;
  local.Add(kCtrMapTasksLaunched, 1);
  if (attempt.speculative) local.Add(kCtrSpeculativeMapsLaunched, 1);

  auto finish = [&](bool merge_counters) {
    if (merge_counters) metrics_->MergeCounters(local);
    scheduler_->Finish(attempt, metrics_->Now());
  };

  auto reader = MakeReader(cluster_->client(attempt.node), spec_.input_kind,
                           (*splits_)[attempt.task]);
  auto mapper = spec_.mapper();
  MapOutputCollector collector(spec_.num_reducers, spec_.partitioner);
  MapCtx ctx(&collector, spec_.config, &local);
  mapper->Setup(&ctx);
  Record record;
  bool has = false;
  for (;;) {
    Status st = reader->Next(&record, &has);
    if (!st.ok()) {
      control_->Fail(st);
      finish(false);
      return;
    }
    if (!has) break;
    local.Add(kCtrMapInputRecords, 1);
    mapper->Map(Slice(record.key), Slice(record.value), &ctx);
    if (control_->cancelled()) {
      finish(false);
      return;
    }
  }
  mapper->Cleanup(&ctx);

  // Barrier-less mode bypasses the sort (§3.1) — unless a combiner is
  // configured, which needs sorted runs to group keys at the mapper.
  bool sort = spec_.combiner || !spec_.barrierless;
  std::unique_ptr<Combiner> combiner;
  if (spec_.combiner) combiner = spec_.combiner();
  auto finished = collector.Finish(sort, spec_.sort_cmp, combiner.get());
  if (!finished.ok()) {
    control_->Fail(finished.status());
    finish(false);
    return;
  }

  // First attempt to commit wins; the loser (a speculative race or a
  // stale retry) discards its output without publishing.
  if (scheduler_->TryCommit(attempt)) {
    local.Add(kCtrMapTasksCommitted, 1);
    local.Add(kCtrMapOutputRecords, finished->output_records);
    local.Add(kCtrMapOutputBytes, finished->output_bytes);
    local.Add(kCtrCombineInputRecords, finished->combine_in);
    local.Add(kCtrCombineOutputRecords, finished->combine_out);
    if (attempt.speculative) local.Add(kCtrSpeculativeMapsWon, 1);
    // Record the completion BEFORE publishing: Publish wakes waiting
    // fetchers, and any reduce event they record must not predate this
    // map's recorded end (the barrier-ordering invariant).
    metrics_->RecordEvent(Phase::kMap, attempt.task, attempt.node, start,
                          metrics_->Now());
    metrics_->NoteMapDone();
    shuffle_->Publish(attempt.task, attempt.node,
                      std::move(finished->segments));
  } else {
    local.Add(kCtrMapAttemptsDiscarded, 1);
  }
  finish(true);
}

namespace {

/// Failures a fresh attempt can plausibly heal: lost or unreadable
/// intermediate state.  Resource exhaustion, invalid input, and
/// internal errors stay fatal so OOMs and real bugs remain loud.
bool IsRecoverable(const Status& st) {
  return st.code() == StatusCode::kUnavailable ||
         st.code() == StatusCode::kDataLoss ||
         st.code() == StatusCode::kNotFound;
}

}  // namespace

void ReduceTaskExecutor::Execute(int r, int node) {
  int max_restarts =
      static_cast<int>(spec_.config.GetInt("reduce.max_restarts", 2));
  for (int attempt = 0;; ++attempt) {
    if (control_->cancelled()) return;
    // Fresh counters per attempt: a discarded attempt's data-flow
    // counters (shuffle bytes, reduce inputs) must not pollute the
    // job's totals.  Recovery counters go through metrics_ directly so
    // they survive the discard.
    Counters local;
    ReduceTaskContext ctx(spec_.config, &local);
    // One span per attempt: a restarted reducer shows as separate bars.
    obs::ScopedSpan task_span(metrics_->tracer(), obs::kSpanReduceTask,
                              "task", r);
    Status st = spec_.barrierless ? RunBarrierless(r, node, &ctx)
                                  : RunBarrier(r, node, &ctx);
    if (control_->cancelled()) return;
    if (st.ok()) {
      local.Add(kCtrReduceOutputRecords, ctx.records().size());
      metrics_->MergeCounters(local);
      double out_start = metrics_->Now();
      st = WriteOutput(r, node, ctx.records());
      if (st.ok()) {
        metrics_->RecordEvent(Phase::kOutput, r, node, out_start,
                              metrics_->Now());
        return;
      }
    }
    if (attempt < max_restarts && IsRecoverable(st)) {
      metrics_->AddCounter(kCtrReduceTaskRestarts, 1);
      // A restart means a tainted or failed reducer threw work away —
      // post-mortem worthy even if the retry succeeds (GUIDE §15).
      metrics_->RequestDump(std::string("reduce.restart task=") +
                            std::to_string(r) + ": " + st.message());
      continue;
    }
    control_->Fail(st);
    return;
  }
}

Status ReduceTaskExecutor::RunBarrier(int r, int node,
                                      ReduceTaskContext* ctx) {
  double shuffle_start = metrics_->Now();

  // Per-mapper buffers filled by the shared fetch substrate; complete
  // only when every map's run is in — the barrier.
  BarrierSink sink(shuffle_->tracker().num_map_tasks());
  auto fetch = shuffle_->StartFetch(
      r, node, &sink, relaunch_,
      [this](const Status& st) { control_->Fail(st); }, obs::CurrentSpan());
  Status fetched = FinishFetch(std::move(fetch), ctx);
  if (control_->cancelled()) return Status::Ok();
  BMR_RETURN_IF_ERROR(fetched);
  double barrier_time = metrics_->Now();
  metrics_->RecordEvent(Phase::kShuffle, r, node, shuffle_start, barrier_time);

  // Barrier reached: materialize the per-mapper batches (the barrier
  // path owns and reorders records, so this is where the copy belongs)
  // and merge-sort them (Fig. 2(c)).
  std::vector<std::vector<Record>> runs;
  runs.reserve(sink.runs().size());
  for (RecordBatch& batch : sink.runs()) {
    runs.push_back(batch.ToRecords());
    batch = RecordBatch();  // release the fetched buffer early
  }
  std::vector<Record> records;
  {
    obs::ScopedSpan sort_span(metrics_->tracer(), obs::kSpanReduceSort,
                              "reduce", r);
    records = MergeSortedRuns(std::move(runs), spec_.sort_cmp);
  }
  double sort_done = metrics_->Now();
  metrics_->RecordEvent(Phase::kSortMerge, r, node, barrier_time, sort_done);
  uint64_t heap_bytes = 0;
  for (const auto& rec : records) {
    heap_bytes += core::EntryFootprint(rec.key.size(), rec.value.size());
  }
  metrics_->SampleMemory(r, heap_bytes);

  // Grouped reduce execution (Fig. 2(d)).
  ctx->counters()->Add(kCtrReduceInputRecords, records.size());
  auto reducer = spec_.reducer();
  reducer->Setup(ctx);
  const KeyCompareFn& group =
      spec_.group_cmp ? spec_.group_cmp : spec_.sort_cmp;
  BMR_RETURN_IF_ERROR(
      ReduceGroups(records, group, reducer.get(), ctx, metrics_->tracer()));
  reducer->Cleanup(ctx);
  metrics_->RecordEvent(Phase::kReduce, r, node, sort_done, metrics_->Now());
  return Status::Ok();
}

Status ReduceTaskExecutor::RunBarrierless(int r, int node,
                                          ReduceTaskContext* ctx) {
  double start = metrics_->Now();

  // Single FIFO buffer shared by the copiers; the reduce thread (this
  // one) drains it a byte-budgeted batch at a time, in arrival order
  // (§3.1 design decision (2)).  The sink registration lives exactly
  // as long as `fetch` (RAII), so an early return can never leave a
  // dangling queue behind for a concurrent JobControl::Fail to close.
  size_t fifo_batches = static_cast<size_t>(spec_.config.GetInt(
      "shuffle.fifo_batches",
      static_cast<int64_t>(kDefaultShuffleFifoBatches)));
  uint64_t batch_bytes = static_cast<uint64_t>(spec_.config.GetInt(
      "shuffle.batch_bytes",
      static_cast<int64_t>(kDefaultShuffleBatchBytes)));
  if (fifo_batches == 0) fifo_batches = 1;
  obs::Tracer* tracer = metrics_->tracer();
  FifoSink sink(fifo_batches, batch_bytes, tracer);
  auto fetch = shuffle_->StartFetch(
      r, node, &sink, relaunch_,
      [this](const Status& st) { control_->Fail(st); }, obs::CurrentSpan());

  // Pipelined reduce: pop records in arrival order and fold them into
  // partial results.
  core::StoreConfig store_config = spec_.store;
  if (!store_config.key_cmp && spec_.sort_cmp) {
    store_config.key_cmp = spec_.sort_cmp;
  }
  if (store_config.fault_injector == nullptr) {
    store_config.fault_injector = cluster_->fault_injector;
  }
  if (store_config.tracer == nullptr) store_config.tracer = tracer;
  auto reducer = spec_.incremental();
  core::BarrierlessDriver driver(reducer.get(), store_config, spec_.config);
  CtxEmitter emitter(ctx);
  // Memoization: seed the store from the previous run's snapshot.
  if (spec_.session != nullptr) {
    if (const auto* snapshot = spec_.session->Get(r)) {
      for (const Record& p : *snapshot) {
        Status st = driver.PreloadPartial(Slice(p.key), Slice(p.value));
        // fetch's destructor joins and unregisters the sink
        if (!st.ok()) return st;
      }
    }
  }
  uint64_t consumed = 0;
  Status consume_st;
  std::vector<RecordBatch> batches;
  while (consume_st.ok()) {
    size_t popped;
    {
      // Consumer-side starvation: time blocked waiting for fetchers to
      // deliver (the "reducer idles on the network" signal).
      obs::LatencyTimer wait(tracer, obs::kHShuffleQueueWaitUs);
      popped = sink.fifo().PopAll(&batches);
    }
    if (popped == 0) break;
    obs::ScopedSpan drain_span(tracer, obs::kSpanReduceBatch, "reduce", r);
    for (const RecordBatch& batch : batches) {
      for (const RecordBatch::Entry& entry : batch) {
        Status st = driver.Consume(entry.key, entry.value, &emitter);
        if (!st.ok()) {
          metrics_->SampleMemory(r, driver.MemoryBytes());
          consume_st = st;
          // Close our own FIFO so producers stop blocking, then fall
          // through to the join — Execute (or the job) handles the
          // error.
          sink.Cancel();
          break;
        }
        if (++consumed % kMemorySampleEvery == 0) {
          metrics_->SampleMemory(r, driver.MemoryBytes());
        }
      }
      if (!consume_st.ok()) break;
    }
    batches.clear();  // drop the batch views — frees fetched buffers
  }
  Status fetched = FinishFetch(std::move(fetch), ctx);
  if (control_->cancelled()) return Status::Ok();
  BMR_RETURN_IF_ERROR(consume_st);
  BMR_RETURN_IF_ERROR(fetched);

  ctx->counters()->Add(kCtrReduceInputRecords, driver.records_consumed());
  Status st;
  if (spec_.session != nullptr) {
    std::vector<Record> snapshot;
    st = driver.FinalizeWithSnapshot(&emitter, &snapshot);
    if (st.ok()) spec_.session->Save(r, std::move(snapshot));
  } else {
    st = driver.Finalize(&emitter);
  }
  if (const core::PartialStore* store = driver.store()) {
    ctx->counters()->Add(kCtrSpills, store->stats().spills);
    ctx->counters()->Add(kCtrSpilledBytes, store->stats().spilled_bytes);
    ctx->counters()->Add(kCtrKvStoreOps, store->stats().folds);
  }
  BMR_RETURN_IF_ERROR(st);
  metrics_->SampleMemory(r, driver.MemoryBytes());
  metrics_->RecordEvent(Phase::kShuffleReduce, r, node, start,
                        metrics_->Now());
  return Status::Ok();
}

Status ReduceTaskExecutor::FinishFetch(
    std::unique_ptr<ShuffleService::Fetch> fetch, ReduceTaskContext* ctx) {
  fetch->Join();
  ctx->counters()->Add(kCtrShuffleBytes, fetch->bytes_fetched());
  metrics_->AddCounter(kCtrShuffleFetchRetries, fetch->retries());
  if (!fetch->tainted()) return Status::Ok();
  return Status::Unavailable("reduce consumed output of a lost map attempt");
}

Status ReduceTaskExecutor::WriteOutput(int r, int node,
                                       const std::vector<Record>& records) {
  obs::ScopedSpan out_span(metrics_->tracer(), obs::kSpanOutputWrite, "task",
                           r);
  obs::LatencyTimer out_latency(metrics_->tracer(), obs::kHOutputWriteUs);
  char name[32];
  std::snprintf(name, sizeof(name), "/part-r-%05d", r);
  std::string path = spec_.output_path + name;
  // A restarted task or job may have left a partial part file behind;
  // Create refuses to overwrite, so clear it first (NotFound is fine).
  Status deleted = cluster_->client(node)->Delete(path);
  (void)deleted;
  auto writer = cluster_->client(node)->Create(path);
  if (!writer.ok()) return writer.status();
  ByteBuffer buf;
  for (const Record& rec : records) {
    if (spec_.output_format == OutputFormat::kTextTsv) {
      AppendTsvRecord(&buf, Slice(rec.key), Slice(rec.value));
    } else {
      AppendFramedRecord(&buf, Slice(rec.key), Slice(rec.value));
    }
    if (buf.size() >= (1 << 20)) {
      BMR_RETURN_IF_ERROR((*writer)->Append(buf.AsSlice()));
      buf.Clear();
    }
  }
  BMR_RETURN_IF_ERROR((*writer)->Append(buf.AsSlice()));
  BMR_RETURN_IF_ERROR((*writer)->Close());
  metrics_->NoteOutputFile(std::move(path));
  return Status::Ok();
}

}  // namespace bmr::mr
