#include "mr/shuffle.h"

#include <algorithm>
#include <queue>

#include "common/stopwatch.h"
#include "obs/metric_names.h"

namespace bmr::mr {

MapOutputTracker::MapOutputTracker(int num_map_tasks)
    : num_map_tasks_(num_map_tasks), state_(num_map_tasks) {}

void MapOutputTracker::MarkDone(int m, int node) {
  {
    MutexLock lock(mu_);
    state_[m].done = true;
    log_.push_back(Entry{m, node, ++state_[m].version});
  }
  cv_.NotifyAll();
}

bool MapOutputTracker::Next(Cursor* cursor, Entry* entry) {
  MutexLock lock(mu_);
  while (!cancelled_ && !cursor->stopped) {
    if (cursor->next == log_.size()) {
      cv_.Wait(mu_);
      continue;
    }
    *entry = log_[cursor->next++];
    const TaskState& s = state_[entry->map];
    if (s.done && s.version == entry->version) return true;
  }
  return false;
}

bool MapOutputTracker::Backoff(const Cursor* cursor, double ms) {
  MutexLock lock(mu_);
  for (Stopwatch waited; !cancelled_ && !cursor->stopped;) {
    double left_ms = ms - waited.ElapsedMillis();
    if (left_ms <= 0) return true;
    (void)cv_.WaitFor(mu_, left_ms);
  }
  return false;
}

void MapOutputTracker::Stop(Cursor* cursor) {
  MutexLock lock(mu_);
  cursor->stopped = true;
  cv_.NotifyAll();
}

bool MapOutputTracker::ReportLost(int m, int version) {
  MutexLock lock(mu_);
  if (!state_[m].done || state_[m].version != version) {
    return false;  // stale report: a newer attempt already exists
  }
  state_[m].done = false;
  return true;
}

void MapOutputTracker::Cancel() {
  MutexLock lock(mu_);
  cancelled_ = true;
  cv_.NotifyAll();
}

namespace {

/// ValuesIterator over a contiguous sorted range.
class RangeValuesIterator final : public ValuesIterator {
 public:
  RangeValuesIterator(const std::vector<Record>& records, size_t begin,
                      size_t end)
      : records_(records), pos_(begin), end_(end) {}

  bool Next(Slice* value) override {
    if (pos_ >= end_) return false;
    *value = Slice(records_[pos_].value);
    ++pos_;
    return true;
  }

 private:
  const std::vector<Record>& records_;
  size_t pos_;
  size_t end_;
};

}  // namespace

Status ReduceGroups(const std::vector<Record>& records,
                    const KeyCompareFn& group_cmp, Reducer* reducer,
                    ReduceContext* ctx, obs::Tracer* tracer) {
  auto equal = [&group_cmp](const Record& a, const Record& b) {
    return group_cmp ? group_cmp(Slice(a.key), Slice(b.key)) == 0
                     : a.key == b.key;
  };
  if (tracer != nullptr && !tracer->enabled()) tracer = nullptr;
  size_t i = 0;
  size_t group = 0;
  while (i < records.size()) {
    size_t j = i + 1;
    while (j < records.size() && equal(records[j], records[i])) ++j;
    RangeValuesIterator values(records, i, j);
    // Sampled (1 in 16): per-group timing on every group would cost
    // more than many reducers' Reduce bodies.
    if (tracer != nullptr && (group++ & 15) == 0) {
      obs::LatencyTimer invoke(tracer, obs::kHReduceInvokeUs);
      reducer->Reduce(Slice(records[i].key), &values, ctx);
    } else {
      reducer->Reduce(Slice(records[i].key), &values, ctx);
    }
    i = j;
  }
  return Status::Ok();
}

std::vector<Record> MergeSortedRuns(std::vector<std::vector<Record>> runs,
                                    const KeyCompareFn& sort_cmp) {
  struct Head {
    size_t run;
    size_t pos;
  };
  auto key_of = [&runs](const Head& h) -> const std::string& {
    return runs[h.run][h.pos].key;
  };
  auto greater = [&](const Head& a, const Head& b) {
    int c = sort_cmp ? sort_cmp(Slice(key_of(a)), Slice(key_of(b)))
                     : key_of(a).compare(key_of(b));
    if (c != 0) return c > 0;
    return a.run > b.run;  // stable across runs
  };
  std::priority_queue<Head, std::vector<Head>, decltype(greater)> heap(greater);
  size_t total = 0;
  for (size_t r = 0; r < runs.size(); ++r) {
    total += runs[r].size();
    if (!runs[r].empty()) heap.push(Head{r, 0});
  }
  std::vector<Record> out;
  out.reserve(total);
  while (!heap.empty()) {
    Head h = heap.top();
    heap.pop();
    out.push_back(std::move(runs[h.run][h.pos]));
    if (h.pos + 1 < runs[h.run].size()) heap.push(Head{h.run, h.pos + 1});
  }
  return out;
}

}  // namespace bmr::mr
