#include "simmr/hadoop_sim.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <deque>
#include <memory>

#include "common/rng.h"
#include "sim/event_queue.h"
#include "sim/flownet.h"
#include "sim/resources.h"

namespace bmr::simmr {

namespace {

/// Hadoop's mapred.reduce.parallel.copies default ballpark.
constexpr int kParallelCopies = 4;

/// Fixed cost of creating/seeking one spill file beyond its streaming
/// write (metadata, seeks between runs at merge time).
constexpr double kSpillOverheadSeconds = 0.3;

/// Cumulative distinct keys seen after n of N stream records, over a
/// population of K keys.  Concave (Zipf-like text front-loads new
/// vocabulary, the long tail trickles in): D(n) = K(1 - e^{-4n/N}),
/// normalized so ~98% of the keys have appeared by the end of the
/// stream.  Spilled partial results re-accumulate only this *new* tail
/// (plus a small hot head absorbed into the per-entry constant), which
/// is what keeps the Fig. 5(b) sawtooth at ~total/threshold spills
/// rather than one per refill of recurring keys.
double DistinctSeen(double n, double keys, double stream_records) {
  if (keys <= 0 || stream_records <= 0) return 0;
  return keys * (1.0 - std::exp(-4.0 * n / stream_records));
}

/// Inverse of DistinctSeen: records from stream start until `d` keys
/// have been seen.  Infinity when unreachable.
double RecordsUntilDistinct(double d, double keys, double stream_records) {
  if (keys <= 0 || d >= keys) {
    return std::numeric_limits<double>::infinity();
  }
  return -(stream_records / 4.0) * std::log(1.0 - d / keys);
}

class JobSim {
 public:
  JobSim(const cluster::ClusterSpec& cluster, const SimJob& job)
      : cluster_(cluster),
        job_(job),
        slaves_(cluster.SlaveIds()),
        rng_(job.seed),
        net_(&sim_, MakeNetConfig(cluster)) {}

  SimResult Run();

 private:
  static sim::FlowNetConfig MakeNetConfig(const cluster::ClusterSpec& c) {
    sim::FlowNetConfig config;
    config.num_nodes = static_cast<int>(c.nodes.size());
    config.link_bytes_per_sec = c.link_bytes_per_sec;
    config.oversubscription = c.oversubscription;
    return config;
  }

  double Jitter() {
    return 1.0 + job_.task_jitter * (2.0 * rng_.NextDouble() - 1.0);
  }

  double Speed(int node) const { return cluster_.nodes[node].speed; }

  void FailOom(int reducer, double mem_bytes);

  // ---- Reduce-side state ----------------------------------------------
  struct Reducer {
    int id = 0;
    int node = -1;
    bool active = false;
    double start_time = 0;
    double jitter = 1.0;
    std::deque<int> fetch_queue;   // completed maps not yet fetched
    int active_fetches = 0;
    int fetched = 0;
    double last_fetch_done = 0;
    // Barrier-less processing state.
    double server_free_at = 0;     // when the fold thread goes idle
    double records_processed = 0;
    double keys_at_spill_base = 0; // distinct keys already spilled out
    int spills = 0;
    // Totals for this reducer.
    double records_total = 0;
    double keys_total = 0;
    double output_bytes = 0;
  };

  void StartMaps();
  double MapCpuSeconds() const;
  void DispatchMaps();
  void StartMapAttempt(int m, int node, bool backup);
  void MaybeSpeculate();
  void StartReducers();
  void ActivateReducer(Reducer* r);
  void OnMapDone(int m);
  void PumpFetches(Reducer* r);
  void OnSegmentFetched(Reducer* r, int m);
  void BarrierReduce(Reducer* r);
  void BarrierlessConsume(Reducer* r, double records, double arrival);
  void FinishBarrierless(Reducer* r);
  void WriteOutputAndFinish(Reducer* r, double start);
  double CurrentMemBytes(const Reducer& r) const;
  double MemAfter(const Reducer& r, double more_records) const;
  double EntryBytes() const;
  double RecordsUntilMem(const Reducer& r, double bytes) const;
  void SampleMemory(const Reducer& r, double t, double bytes);
  void Record(mr::Phase phase, int task_id, int node, double start,
              double end) {
    result_.events.push_back(mr::TaskEvent{phase, task_id, node, start, end});
  }

  const cluster::ClusterSpec& cluster_;
  const SimJob& job_;
  std::vector<int> slaves_;
  Pcg32 rng_;

  sim::Simulation sim_;
  sim::FlowNetwork net_;
  std::vector<std::unique_ptr<sim::SlotResource>> map_slots_;     // per node
  std::vector<std::unique_ptr<sim::SlotResource>> reduce_slots_;  // per node

  int num_maps_ = 0;
  double records_per_map_ = 0;
  double out_records_per_map_ = 0;
  double out_bytes_per_map_ = 0;
  std::vector<int> map_node_;
  std::vector<double> map_start_;
  std::vector<double> map_jitter_;
  std::vector<double> map_done_;  // -1 = not yet
  std::vector<bool> backup_launched_;
  std::deque<int> pending_maps_;
  std::vector<int> free_map_slots_;
  size_t map_rr_cursor_ = 0;

  std::vector<Reducer> reducers_;
  int reducers_done_ = 0;

  SimResult result_;
  bool failed_ = false;
};

SimResult JobSim::Run() {
  // ---- Derived volumes -------------------------------------------------
  num_maps_ = job_.num_map_tasks > 0
                  ? job_.num_map_tasks
                  : static_cast<int>(std::ceil(
                        job_.input_bytes /
                        static_cast<double>(cluster_.dfs_block_bytes)));
  num_maps_ = std::max(num_maps_, 1);
  records_per_map_ =
      static_cast<double>(job_.map_input_records) / num_maps_;
  // The combiner folds a fraction of the map output away before the
  // shuffle (at some mapper CPU cost, charged in StartMaps).
  double keep = 1.0 - job_.combiner_reduction;
  out_records_per_map_ =
      static_cast<double>(job_.map_output_records) / num_maps_ * keep;
  out_bytes_per_map_ = job_.map_output_bytes / num_maps_ * keep;

  int n = static_cast<int>(cluster_.nodes.size());
  map_slots_.resize(n);
  reduce_slots_.resize(n);
  for (int i = 0; i < n; ++i) {
    map_slots_[i] = std::make_unique<sim::SlotResource>(
        &sim_, cluster_.nodes[i].map_slots, "map");
    reduce_slots_[i] = std::make_unique<sim::SlotResource>(
        &sim_, cluster_.nodes[i].reduce_slots, "reduce");
  }
  map_node_.assign(num_maps_, -1);
  map_start_.assign(num_maps_, 0.0);
  map_done_.assign(num_maps_, -1.0);
  backup_launched_.assign(num_maps_, false);

  reducers_.resize(job_.num_reducers);
  double records_per_reducer = static_cast<double>(job_.map_output_records) *
                               keep / job_.num_reducers;
  double keys_per_reducer =
      static_cast<double>(job_.distinct_keys) / job_.num_reducers;
  for (int r = 0; r < job_.num_reducers; ++r) {
    reducers_[r].id = r;
    reducers_[r].node = slaves_[r % slaves_.size()];
    reducers_[r].records_total = records_per_reducer;
    reducers_[r].keys_total = keys_per_reducer;
    reducers_[r].output_bytes = job_.output_bytes / job_.num_reducers;
  }

  StartMaps();
  StartReducers();
  sim_.Run();

  if (failed_) {
    result_.completion_seconds = result_.failure_time;
  }
  for (const auto& r : reducers_) {
    if (r.fetched == num_maps_ && result_.first_map_done > 0) {
      result_.mapper_slack = std::max(
          result_.mapper_slack, r.last_fetch_done - result_.first_map_done);
    }
  }
  return result_;
}

void JobSim::StartMaps() {
  // Pull-based dispatch, as in Hadoop: tasks wait in a global queue and
  // a node takes the next one whenever one of its map slots frees.
  // Slow nodes therefore naturally run fewer tasks.
  map_jitter_.resize(num_maps_);
  for (int m = 0; m < num_maps_; ++m) {
    map_jitter_[m] = Jitter();  // data skew: sticks to the task
    pending_maps_.push_back(m);
  }
  free_map_slots_.assign(cluster_.nodes.size(), 0);
  for (int node : slaves_) {
    free_map_slots_[node] = cluster_.nodes[node].map_slots;
  }
  DispatchMaps();
}

double JobSim::MapCpuSeconds() const {
  double cpu = records_per_map_ * job_.map_cost_per_record +
               out_records_per_map_ * job_.map_sort_cost_per_record;
  if (job_.combiner_reduction > 0) {
    // Combining touches every pre-combine output record once.
    cpu += static_cast<double>(job_.map_output_records) / num_maps_ *
           job_.reduce_cost_per_record;
  }
  return cpu;
}

void JobSim::DispatchMaps() {
  while (!pending_maps_.empty()) {
    // Round-robin over slaves with a free slot.
    int chosen = -1;
    for (size_t i = 0; i < slaves_.size(); ++i) {
      int node = slaves_[(map_rr_cursor_ + i) % slaves_.size()];
      if (free_map_slots_[node] > 0) {
        chosen = node;
        map_rr_cursor_ = (map_rr_cursor_ + i + 1) % slaves_.size();
        break;
      }
    }
    if (chosen < 0) return;
    int m = pending_maps_.front();
    pending_maps_.pop_front();
    StartMapAttempt(m, chosen, /*backup=*/false);
  }
}

void JobSim::StartMapAttempt(int m, int node, bool backup) {
  --free_map_slots_[node];
  if (!backup) {
    map_node_[m] = node;
    map_start_[m] = sim_.Now();
  }
  double duration = MapCpuSeconds() / Speed(node) * map_jitter_[m] +
                    out_bytes_per_map_ / cluster_.disk_bytes_per_sec;
  sim_.ScheduleAfter(duration, [this, m, node, backup] {
    ++free_map_slots_[node];
    if (!failed_ && map_done_[m] < 0) {
      if (backup) {
        ++result_.backups_won;
        map_node_[m] = node;  // reducers fetch from the winner
      }
      double now = sim_.Now();
      map_done_[m] = now;
      if (result_.first_map_done == 0) result_.first_map_done = now;
      result_.last_map_done = std::max(result_.last_map_done, now);
      OnMapDone(m);
      if (job_.speculative_execution) MaybeSpeculate();
    }
    if (!failed_) DispatchMaps();
  });
}

void JobSim::MaybeSpeculate() {
  // Median duration of completed maps.
  std::vector<double> done_durations;
  for (int m = 0; m < num_maps_; ++m) {
    if (map_done_[m] >= 0) {
      done_durations.push_back(map_done_[m] - map_start_[m]);
    }
  }
  if (done_durations.size() < 3) return;
  std::nth_element(done_durations.begin(),
                   done_durations.begin() + done_durations.size() / 2,
                   done_durations.end());
  double median = done_durations[done_durations.size() / 2];

  for (int m = 0; m < num_maps_; ++m) {
    if (map_done_[m] >= 0 || backup_launched_[m]) continue;
    bool running = map_start_[m] > 0 || map_node_[m] >= 0;
    if (!running) continue;  // still queued: will run somewhere healthy
    double elapsed = sim_.Now() - map_start_[m];
    if (elapsed < job_.speculation_slowness * median) continue;
    // A backup is worthwhile only if a free slot exists elsewhere.
    for (int node : slaves_) {
      if (node == map_node_[m] || free_map_slots_[node] <= 0) continue;
      backup_launched_[m] = true;
      ++result_.backups_launched;
      StartMapAttempt(m, node, /*backup=*/true);
      break;
    }
  }
}

void JobSim::StartReducers() {
  for (auto& r : reducers_) {
    reduce_slots_[r.node]->Acquire([this, rp = &r] { ActivateReducer(rp); });
  }
}

void JobSim::ActivateReducer(Reducer* r) {
  if (failed_) return;
  r->active = true;
  r->start_time = sim_.Now();
  r->server_free_at = sim_.Now();
  r->jitter = Jitter();
  // Everything that already finished is fetchable immediately.
  for (int m = 0; m < num_maps_; ++m) {
    if (map_done_[m] >= 0) r->fetch_queue.push_back(m);
  }
  SampleMemory(*r, sim_.Now(), 0);
  PumpFetches(r);
}

void JobSim::OnMapDone(int m) {
  Record(mr::Phase::kMap, m, map_node_[m], map_start_[m], map_done_[m]);
  for (auto& r : reducers_) {
    if (r.active) {
      r.fetch_queue.push_back(m);
      PumpFetches(&r);
    }
  }
}

void JobSim::PumpFetches(Reducer* r) {
  while (!failed_ && r->active_fetches < kParallelCopies &&
         !r->fetch_queue.empty()) {
    int m = r->fetch_queue.front();
    r->fetch_queue.pop_front();
    r->active_fetches++;
    double segment = out_bytes_per_map_ / job_.num_reducers;
    result_.shuffle_bytes += segment;
    net_.StartFlow(map_node_[m], r->node, segment,
                   [this, r, m] { OnSegmentFetched(r, m); });
  }
}

void JobSim::OnSegmentFetched(Reducer* r, int m) {
  (void)m;
  if (failed_) return;
  r->active_fetches--;
  r->fetched++;
  r->last_fetch_done = sim_.Now();
  double records = r->records_total / num_maps_;
  if (job_.barrierless) {
    BarrierlessConsume(r, records, sim_.Now());
  }
  if (r->fetched == num_maps_) {
    if (job_.barrierless) {
      FinishBarrierless(r);
    } else {
      BarrierReduce(r);
    }
  } else {
    PumpFetches(r);
  }
}

// ---- With barrier ------------------------------------------------------

void JobSim::BarrierReduce(Reducer* r) {
  double barrier_time = sim_.Now();
  Record(mr::Phase::kShuffle, r->id, r->node, r->start_time, barrier_time);
  // The merge buffer holds every record at the barrier (Fig. 2(b)).
  SampleMemory(*r, barrier_time,
               r->records_total * job_.partial_entry_bytes);

  double speed = Speed(r->node);
  double sort_secs =
      r->records_total * job_.merge_cost_per_record / speed * r->jitter;
  double reduce_secs =
      r->records_total * job_.reduce_cost_per_record / speed * r->jitter;
  sim_.ScheduleAfter(sort_secs, [this, r, barrier_time, sort_secs,
                                 reduce_secs] {
    double sort_done = sim_.Now();
    Record(mr::Phase::kSortMerge, r->id, r->node, barrier_time, sort_done);
    sim_.ScheduleAfter(reduce_secs, [this, r, sort_done] {
      Record(mr::Phase::kReduce, r->id, r->node, sort_done, sim_.Now());
      WriteOutputAndFinish(r, sim_.Now());
    });
    (void)sort_secs;
  });
}

// ---- Without barrier -----------------------------------------------------

double JobSim::CurrentMemBytes(const Reducer& r) const {
  return MemAfter(r, 0);
}

double JobSim::EntryBytes() const {
  double mult = job_.mem_class == MemClass::kKKeys
                    ? static_cast<double>(job_.selection_k)
                    : 1.0;
  return job_.partial_entry_bytes * mult;
}

double JobSim::MemAfter(const Reducer& r, double more) const {
  double n = r.records_processed + more;
  switch (job_.mem_class) {
    case MemClass::kNone:
      return 0;
    case MemClass::kConstant:
      return job_.partial_entry_bytes;
    case MemClass::kWindow:
      return static_cast<double>(job_.window_size) * job_.partial_entry_bytes;
    case MemClass::kKeys:
    case MemClass::kKKeys: {
      double seen = DistinctSeen(n, r.keys_total, r.records_total);
      return std::max(0.0, seen - r.keys_at_spill_base) * EntryBytes();
    }
    case MemClass::kRecords:
      // Every record retained; spills drop what is already on disk.
      return std::max(0.0, n - r.keys_at_spill_base) * EntryBytes();
  }
  return 0;
}

// Records (from stream start) at which this reducer's resident partial
// results reach `bytes`; infinity when they never do.
double JobSim::RecordsUntilMem(const Reducer& r, double bytes) const {
  double entries = bytes / EntryBytes() + r.keys_at_spill_base;
  switch (job_.mem_class) {
    case MemClass::kKeys:
    case MemClass::kKKeys:
      return RecordsUntilDistinct(entries, r.keys_total, r.records_total);
    case MemClass::kRecords:
      return entries;
    default:
      return std::numeric_limits<double>::infinity();
  }
}

void JobSim::SampleMemory(const Reducer& r, double t, double bytes) {
  result_.memory_samples.push_back(SimMemorySample{t, r.id, bytes});
}

void JobSim::FailOom(int reducer, double mem_bytes) {
  if (failed_) return;
  failed_ = true;
  result_.failed_oom = true;
  result_.failure_time = sim_.Now();
  result_.status = Status::ResourceExhausted(
      "reducer " + std::to_string(reducer) + " exceeded heap with " +
      std::to_string(static_cast<uint64_t>(mem_bytes)) + " bytes");
}

void JobSim::BarrierlessConsume(Reducer* r, double records, double arrival) {
  // The fold thread drains the FIFO: work starts when both the record
  // batch has arrived and the previous backlog is gone.
  double speed = Speed(r->node);
  double per_record = job_.incremental_cost_per_record / speed * r->jitter;
  if (job_.store.type == core::StoreType::kKvStore &&
      job_.store.kv_ops_per_sec > 0) {
    // Read-modify-update: one put plus the cache-missing share of gets,
    // at the store's sustained op rate.
    double ops = 1.0 + (1.0 - job_.store.kv_cache_fraction);
    per_record += ops / job_.store.kv_ops_per_sec;
  }

  const bool tracks_memory = job_.mem_class == MemClass::kKeys ||
                             job_.mem_class == MemClass::kKKeys ||
                             job_.mem_class == MemClass::kRecords;
  double t = std::max(arrival, r->server_free_at);
  double remaining = records;
  while (remaining > 0) {
    // In-memory heap death (Fig. 5(a)): find the crossing record.
    if (tracks_memory && job_.store.type == core::StoreType::kInMemory &&
        job_.store.heap_limit_bytes > 0 &&
        MemAfter(*r, remaining) >
            static_cast<double>(job_.store.heap_limit_bytes)) {
      double n_fail = RecordsUntilMem(
          *r, static_cast<double>(job_.store.heap_limit_bytes));
      double crossing = std::max(0.0, n_fail - r->records_processed);
      double fail_at = t + crossing * per_record;
      r->records_processed += crossing;
      sim_.ScheduleAt(fail_at, [this, r] {
        SampleMemory(*r, sim_.Now(), CurrentMemBytes(*r));
        FailOom(r->id, CurrentMemBytes(*r));
      });
      r->server_free_at = fail_at;
      return;
    }
    // Spill-and-merge threshold crossing within this batch?
    if (tracks_memory && job_.store.type == core::StoreType::kSpillMerge &&
        job_.store.spill_threshold_bytes > 0 &&
        MemAfter(*r, remaining) >
            static_cast<double>(job_.store.spill_threshold_bytes)) {
      double n_spill = RecordsUntilMem(
          *r, static_cast<double>(job_.store.spill_threshold_bytes));
      double crossing =
          std::min(remaining,
                   std::max(1.0, n_spill - r->records_processed));
      t += crossing * per_record;
      r->records_processed += crossing;
      remaining -= crossing;
      double resident = MemAfter(*r, 0);
      if (resident >=
          static_cast<double>(job_.store.spill_threshold_bytes) * 0.999) {
        // Spill: write the memtable in key order, pause the fold thread.
        SampleMemory(*r, t, resident);
        t += resident / cluster_.disk_bytes_per_sec + kSpillOverheadSeconds;
        r->spills++;
        r->keys_at_spill_base += resident / EntryBytes();
        SampleMemory(*r, t, 0);
      }
      continue;
    }
    // No boundary in this batch: just charge the fold time.
    t += remaining * per_record;
    r->records_processed += remaining;
    remaining = 0;
  }
  r->server_free_at = t;
  SampleMemory(*r, t, MemAfter(*r, 0));
}

void JobSim::FinishBarrierless(Reducer* r) {
  // All segments fetched; the fold thread finishes at server_free_at,
  // then runs the final ordered emission.
  double speed = Speed(r->node);
  double finalize = r->keys_total * job_.finalize_cost_per_key / speed;
  if (job_.store.type == core::StoreType::kSpillMerge && r->spills > 0) {
    // Merge phase re-reads every spill file (plus per-file open/seek).
    double spilled_bytes =
        static_cast<double>(job_.store.spill_threshold_bytes) * r->spills;
    finalize += spilled_bytes / cluster_.disk_bytes_per_sec +
                r->spills * kSpillOverheadSeconds;
  }
  if (job_.store.type == core::StoreType::kKvStore &&
      job_.store.kv_ops_per_sec > 0) {
    finalize += r->keys_total / job_.store.kv_ops_per_sec;
  }
  double done_at = std::max(r->server_free_at, sim_.Now()) + finalize;
  sim_.ScheduleAt(done_at, [this, r] {
    if (failed_) return;
    Record(mr::Phase::kShuffleReduce, r->id, r->node,
           r->start_time, sim_.Now());
    SampleMemory(*r, sim_.Now(), 0);
    WriteOutputAndFinish(r, sim_.Now());
  });
}

void JobSim::WriteOutputAndFinish(Reducer* r, double start) {
  // DFS write: local disk plus a pipelined remote replica stream
  // (replication - 1 copies share the uplink serially — the output
  // bottleneck the paper observes for WordCount and the GA).
  double disk = r->output_bytes / cluster_.disk_bytes_per_sec;
  double replicas = std::max(0, cluster_.dfs_replication - 1);
  double network = replicas * r->output_bytes / cluster_.link_bytes_per_sec;
  double duration = disk + network;
  sim_.ScheduleAfter(duration, [this, r, start] {
    if (failed_) return;
    Record(mr::Phase::kOutput, r->id, r->node, start, sim_.Now());
    reduce_slots_[r->node]->Release();
    if (++reducers_done_ == job_.num_reducers) {
      result_.completion_seconds = sim_.Now();
    }
  });
}

}  // namespace

SimResult SimulateJob(const cluster::ClusterSpec& cluster, const SimJob& job) {
  JobSim sim(cluster, job);
  return sim.Run();
}

mr::JobMetrics ToJobMetrics(const SimResult& result) {
  mr::JobMetrics m;
  m.events = result.events;
  m.elapsed_seconds = result.completion_seconds;
  m.first_map_done = result.first_map_done;
  m.last_map_done = result.last_map_done;
  m.counters.Add(mr::kCtrShuffleBytes,
                 static_cast<uint64_t>(result.shuffle_bytes));
  m.counters.Add(mr::kCtrSpeculativeMapsLaunched,
                 static_cast<uint64_t>(result.backups_launched));
  m.counters.Add(mr::kCtrSpeculativeMapsWon,
                 static_cast<uint64_t>(result.backups_won));
  m.memory_samples.reserve(result.memory_samples.size());
  for (const SimMemorySample& s : result.memory_samples) {
    m.memory_samples.push_back(
        mr::MemorySample{s.t, s.reducer, static_cast<uint64_t>(s.bytes)});
  }
  return m;
}

}  // namespace bmr::simmr
