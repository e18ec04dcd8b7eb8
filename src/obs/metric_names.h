// The central registry of observability metric names.  Every latency
// histogram and every Prometheus-facing series name in src/ lives here
// (scripts/lint.sh check 7 bans raw string literals at Record/Add call
// sites), so one grep finds every producer of a metric and renames
// cannot silently fork a series.
//
// Naming convention (docs/GUIDE.md §10): bmr_<subsystem>_<name>_<unit>
// where <unit> is one of us / bytes / seconds / total (counters).
#pragma once

namespace bmr::obs {

// ---- Latency histograms (unit: microseconds) -------------------------
/// Shuffle fetch round-trip: one FetchSegment RPC, reduce side.
inline constexpr const char* kHShuffleFetchRttUs = "bmr_shuffle_fetch_rtt_us";
/// Reduce-thread wait on the shuffle FIFO (BoundedQueue::PopAll).
inline constexpr const char* kHShuffleQueueWaitUs =
    "bmr_shuffle_queue_wait_us";
/// Fetcher-thread wait pushing a batch into a full FIFO.
inline constexpr const char* kHShuffleQueuePushWaitUs =
    "bmr_shuffle_queue_push_wait_us";
/// One incremental Reduce invocation (barrier-less Update, or one
/// grouped Reduce call in barrier mode).  Sampled.
inline constexpr const char* kHReduceInvokeUs = "bmr_reduce_invoke_us";
/// One PartialStore::Fold: lookup, Update in place, accounting.
/// Sampled.
inline constexpr const char* kHStoreFoldUs = "bmr_store_fold_us";
/// One spill-file flush of the spill-merge store.
inline constexpr const char* kHStoreSpillUs = "bmr_store_spill_us";
/// One transport Call, end to end (handler included): one series per
/// Transport implementation, as a labeled family.  Histogram names may
/// carry a label
/// suffix in braces; the exporter folds it into each _bucket/_sum/
/// _count line (obs/export.cc).
inline constexpr const char* kHRpcCallInprocUs =
    "bmr_rpc_call_us{transport=\"inproc\"}";
inline constexpr const char* kHRpcCallTcpUs =
    "bmr_rpc_call_us{transport=\"tcp\"}";
/// One loopback TCP connect (nonblocking connect to writable), client
/// side of the TCP transport.
inline constexpr const char* kHNetConnectUs = "bmr_net_connect_us";
/// One frame cut + decoded off a connection's read buffer, event-loop
/// side of the TCP transport.
inline constexpr const char* kHNetFrameDecodeUs = "bmr_net_frame_decode_us";
/// One reducer part-file write (serialize + DFS append + close).
inline constexpr const char* kHOutputWriteUs = "bmr_output_write_us";
/// One committed map attempt's segments through the block codec into
/// the store (all partitions, on the map thread in ShuffleService::
/// Publish).
inline constexpr const char* kHCodecEncodeUs = "bmr_codec_encode_us";
/// One fetched segment's checksum verify + decompress, fetcher thread.
inline constexpr const char* kHCodecDecodeUs = "bmr_codec_decode_us";

// ---- Prometheus series emitted by the exporters ----------------------
/// Engine counters are exported as bmr_job_<counter>_total; this is
/// the prefix, not a full name.
inline constexpr const char* kPromJobCounterPrefix = "bmr_job_";
/// Fired fault counters (fault_injected_<kind>) export as one labeled
/// family: bmr_faults_injected_total{kind="<kind>"}.
inline constexpr const char* kPromFaultsInjected = "bmr_faults_injected_total";
/// The raw counter prefix the engine records fault firings under.
inline constexpr const char* kCtrFaultInjectedPrefix = "fault_injected_";
/// Times Transport::Register overwrote a live handler (DFS restarts
/// do this deliberately; anything else is a registration bug).
inline constexpr const char* kPromRpcHandlerReregistered =
    "bmr_rpc_handler_reregistered_total";
/// Job-level gauges.
inline constexpr const char* kPromJobElapsedSeconds =
    "bmr_job_elapsed_seconds";
inline constexpr const char* kPromJobFirstMapDoneSeconds =
    "bmr_job_first_map_done_seconds";
inline constexpr const char* kPromJobLastMapDoneSeconds =
    "bmr_job_last_map_done_seconds";
inline constexpr const char* kPromReducerHeapPeakBytes =
    "bmr_reducer_heap_peak_bytes";
/// Shuffle data-plane gauges (GUIDE §13): bytes before/after the block
/// codec for the job's published map output...
inline constexpr const char* kPromCodecRawBytes = "bmr_codec_raw_bytes";
inline constexpr const char* kPromCodecWireBytes = "bmr_codec_wire_bytes";
/// ...and the pooled-memory families (process-lifetime monotonic
/// totals, snapshotted at job end: deltas between runs are the
/// per-job view).
inline constexpr const char* kPromArenaAllocatedBytes =
    "bmr_arena_allocated_bytes";
inline constexpr const char* kPromArenaChunkReuseTotal =
    "bmr_arena_chunk_reuse_total";
inline constexpr const char* kPromArenaBufferReuseTotal =
    "bmr_arena_buffer_reuse_total";
inline constexpr const char* kPromArenaCachedBytes = "bmr_arena_cached_bytes";

// ---- Observability self-metrics (GUIDE §15) --------------------------
/// Spans discarded at the tracer's central-log cap
/// (TracerOptions::max_spans) — nonzero means the trace is a sampled
/// prefix, not the whole run.
inline constexpr const char* kPromObsSpansDropped =
    "bmr_obs_spans_dropped_total";
/// Flight-dump post-mortem artifacts written at job end.
inline constexpr const char* kPromObsFlightDumps =
    "bmr_obs_flight_dumps_total";
/// Category of the instant naming each flight-dump trigger; the chaos
/// harness greps dumped artifacts for it.
inline constexpr const char* kFlightTriggerCategory = "flight.trigger";

// ---- Multi-tenant job service (src/service/, GUIDE §14) --------------
// Per-pool families: the service composes each series name with a
// {pool="<name>"} label block before inserting it into its
// MetricsSnapshot; the exporter passes bmr_-prefixed counters through
// verbatim and strips the labels for the family TYPE line.
/// Jobs admitted into a pool's queue.
inline constexpr const char* kPromServiceJobsSubmitted =
    "bmr_service_jobs_submitted_total";
/// Jobs that ran to a successful completion.
inline constexpr const char* kPromServiceJobsCompleted =
    "bmr_service_jobs_completed_total";
/// Jobs that ran and failed (engine status not ok).
inline constexpr const char* kPromServiceJobsFailed =
    "bmr_service_jobs_failed_total";
/// Submissions bounced by admission control (pool queue full, service
/// saturated, unknown pool, shutdown).
inline constexpr const char* kPromServiceJobsRejected =
    "bmr_service_jobs_rejected_total";
/// Queued jobs evicted by fair-share preemption to make room for an
/// under-share pool's submission.
inline constexpr const char* kPromServiceJobsPreempted =
    "bmr_service_jobs_preempted_total";
/// Submit-to-completion latency, per pool (queue wait included).
inline constexpr const char* kHServiceJobLatencyUs =
    "bmr_service_job_latency_us";
/// Submit-to-start queue wait, per pool.
inline constexpr const char* kHServiceQueueWaitUs =
    "bmr_service_queue_wait_us";
/// Service-wide point-in-time occupancy gauges.
inline constexpr const char* kPromServiceJobsRunning =
    "bmr_service_jobs_running_total";
inline constexpr const char* kPromServiceJobsQueued =
    "bmr_service_jobs_queued_total";

// ---- Span names ------------------------------------------------------
// Spans are display labels, not series names, but keeping them here
// keeps the taxonomy (GUIDE §10) in one place.
inline constexpr const char* kSpanJob = "job";
inline constexpr const char* kSpanMapTask = "task.map";
inline constexpr const char* kSpanReduceTask = "task.reduce";
inline constexpr const char* kSpanShuffleFetch = "shuffle.fetch";
inline constexpr const char* kSpanReduceBatch = "reduce.batch";
inline constexpr const char* kSpanReduceSort = "reduce.sort";
inline constexpr const char* kSpanStoreSpill = "store.spill";
inline constexpr const char* kSpanOutputWrite = "task.output";
/// Server-side execution of one RPC handler, opened under the wire
/// trace context's propagated parent (GUIDE §15) — the cross-node
/// stitch point.  arg = destination node.
inline constexpr const char* kSpanRpcHandler = "rpc.handler";

}  // namespace bmr::obs
