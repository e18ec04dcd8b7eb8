#include "mr/metrics.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "obs/export.h"

namespace bmr::mr {

void MetricsRegistry::AddCounter(const char* name, uint64_t delta) {
  MutexLock lock(mu_);
  counters_.Add(name, delta);
}

void MetricsRegistry::MergeCounters(const Counters& c) {
  MutexLock lock(mu_);
  counters_.MergeFrom(c);
}

uint64_t MetricsRegistry::GetCounter(const char* name) const {
  MutexLock lock(mu_);
  return counters_.Get(name);
}

void MetricsRegistry::SampleMemory(int reducer, uint64_t bytes) {
  double t = Now();
  MutexLock lock(mu_);
  samples_.push_back(MemorySample{t, reducer, bytes});
}

void MetricsRegistry::NoteMapDone() {
  double t = Now();
  MutexLock lock(mu_);
  if (first_map_done_ == 0) first_map_done_ = t;
  last_map_done_ = std::max(last_map_done_, t);
}

void MetricsRegistry::NoteOutputFile(std::string path) {
  MutexLock lock(mu_);
  output_files_.push_back(std::move(path));
}

void MetricsRegistry::RecordEvent(Phase phase, int task_id, int node,
                                  double start, double end) {
  MutexLock lock(mu_);
  events_.push_back(TaskEvent{phase, task_id, node, start, end});
}

void MetricsRegistry::RequestDump(std::string reason) {
  MutexLock lock(mu_);
  dump_reasons_.push_back(std::move(reason));
}

JobMetrics MetricsRegistry::Snapshot() const {
  JobMetrics m;
  m.elapsed_seconds = Now();
  if (tracer_.enabled()) {
    m.trace_enabled = true;
    m.trace = tracer_.CollectTrace();
    m.histograms = tracer_.SnapshotHistograms();
    m.spans_dropped = tracer_.dropped_spans();
  }
  MutexLock lock(mu_);
  m.counters = counters_;
  m.memory_samples = samples_;
  m.output_files = output_files_;
  m.events = events_;
  m.dump_reasons = dump_reasons_;
  m.first_map_done = first_map_done_;
  m.last_map_done = last_map_done_;
  return m;
}

std::string FormatJobMetrics(const std::string& label, const JobMetrics& m) {
  char line[160];
  std::string out;
  std::snprintf(line, sizeof(line), "[%s] elapsed %.3fs  maps done %.3fs..%.3fs\n",
                label.c_str(), m.elapsed_seconds, m.first_map_done,
                m.last_map_done);
  out += line;
  std::snprintf(line, sizeof(line),
                "[%s] %zu task events, %zu memory samples, %zu output files\n",
                label.c_str(), m.events.size(), m.memory_samples.size(),
                m.output_files.size());
  out += line;
  for (const auto& [name, value] : m.counters.values()) {
    std::snprintf(line, sizeof(line), "[%s]   %-32s %llu\n", label.c_str(),
                  name.c_str(), static_cast<unsigned long long>(value));
    out += line;
  }
  if (!m.histograms.empty()) {
    std::snprintf(line, sizeof(line), "[%s] %zu latency histograms\n",
                  label.c_str(), m.histograms.size());
    out += line;
    std::string summaries = obs::FormatHistogramSummaries(m.histograms);
    size_t pos = 0;
    while (pos < summaries.size()) {
      size_t eol = summaries.find('\n', pos);
      if (eol == std::string::npos) eol = summaries.size();
      out += "[" + label + "]   " + summaries.substr(pos, eol - pos) + "\n";
      pos = eol + 1;
    }
  }
  return out;
}

}  // namespace bmr::mr
