#include "obs/flight_recorder.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

#include "obs/export.h"

namespace bmr::obs {
namespace {

// The flight ring carries dynamic strings, so it cannot ride the
// static-lifetime Span/TraceLog pipeline in export.cc; it emits the
// same Perfetto shape itself, through export.h's JSON helpers.
constexpr int kFlightPid = 3;

}  // namespace

FlightRecorder* FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();
  return recorder;
}

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(capacity > 0 ? capacity : 1) {}

void FlightRecorder::Append(FlightEvent event) {
  MutexLock lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
  } else {
    ring_[next_] = std::move(event);
  }
  next_ = (next_ + 1) % capacity_;
  ++total_;
}

void FlightRecorder::RecordSpan(const std::string& name,
                                const std::string& category, int64_t arg,
                                int node, double duration_s) {
  FlightEvent e;
  e.name = name;
  e.category = category;
  e.arg = arg;
  e.node = node;
  e.end_s = clock_.ElapsedSeconds();
  e.start_s = duration_s > 0 && duration_s < e.end_s ? e.end_s - duration_s
                                                     : e.end_s;
  Append(std::move(e));
}

void FlightRecorder::Note(const std::string& name, const std::string& category,
                          int64_t arg, int node) {
  RecordSpan(name, category, arg, node, 0);
}

void FlightRecorder::RecordCounter(const std::string& name, double value) {
  FlightEvent e;
  e.kind = FlightEvent::Kind::kCounter;
  e.name = name;
  e.value = value;
  e.start_s = e.end_s = clock_.ElapsedSeconds();
  Append(std::move(e));
}

void FlightRecorder::RequestDump(const std::string& reason, int64_t arg) {
  {
    MutexLock lock(mu_);
    dump_reasons_.push_back(reason);
  }
  Note(reason, kFlightTriggerCategory, arg, -1);
}

bool FlightRecorder::dump_pending() const {
  MutexLock lock(mu_);
  return !dump_reasons_.empty();
}

std::vector<std::string> FlightRecorder::TakeDumpReasons() {
  MutexLock lock(mu_);
  std::vector<std::string> reasons;
  reasons.swap(dump_reasons_);
  return reasons;
}

std::vector<FlightEvent> FlightRecorder::Chronological(size_t last_n) const {
  std::vector<FlightEvent> events;
  events.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    events.assign(ring_.begin(), ring_.end());
  } else {
    events.assign(ring_.begin() + next_, ring_.end());
    events.insert(events.end(), ring_.begin(), ring_.begin() + next_);
  }
  if (last_n > 0 && events.size() > last_n) {
    events.erase(events.begin(), events.end() - last_n);
  }
  return events;
}

std::string FlightRecorder::SnapshotJson(size_t last_n) const {
  std::vector<FlightEvent> events;
  {
    MutexLock lock(mu_);
    events = Chronological(last_n);
  }
  // The Perfetto validator requires X-event timestamps non-decreasing
  // in document order; RecordSpan backdates starts, so sort.
  std::stable_sort(events.begin(), events.end(),
                   [](const FlightEvent& a, const FlightEvent& b) {
                     return a.start_s < b.start_s;
                   });

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto comma = [&] {
    if (!first) out += ",\n";
    first = false;
  };
  comma();
  out += "{\"ph\":\"M\",\"pid\":" + std::to_string(kFlightPid) +
         ",\"name\":\"process_name\",\"args\":{\"name\":\"bmr-flight\"}}";
  comma();
  out += "{\"ph\":\"M\",\"pid\":" + std::to_string(kFlightPid) +
         ",\"tid\":0,\"name\":\"thread_name\",\"args\":{\"name\":"
         "\"flight-ring\"}}";
  int span_seq = 0;
  for (const FlightEvent& e : events) {
    comma();
    if (e.kind == FlightEvent::Kind::kCounter) {
      out += "{\"ph\":\"C\",\"pid\":" + std::to_string(kFlightPid) +
             ",\"tid\":0,\"ts\":" + JsonNumber(e.start_s * 1e6) +
             ",\"name\":" + JsonString(e.name) +
             ",\"args\":{\"value\":" + JsonNumber(e.value) + "}}";
      continue;
    }
    double dur = (e.end_s - e.start_s) * 1e6;
    if (dur < 0) dur = 0;
    out += "{\"ph\":\"X\",\"pid\":" + std::to_string(kFlightPid) +
           ",\"tid\":0,\"ts\":" + JsonNumber(e.start_s * 1e6) +
           ",\"dur\":" + JsonNumber(dur) + ",\"name\":" + JsonString(e.name) +
           ",\"cat\":" + JsonString(e.category) +
           ",\"args\":{\"span\":" + std::to_string(++span_seq) +
           ",\"parent\":0";
    if (e.arg >= 0) out += ",\"id\":" + std::to_string(e.arg);
    if (e.node >= 0) out += ",\"node\":" + std::to_string(e.node);
    out += "}}";
  }
  out += "]}";
  return out;
}

StatusOr<std::string> FlightRecorder::DumpToDir(const std::string& dir) {
  uint64_t seq;
  {
    MutexLock lock(mu_);
    seq = dump_seq_++;
  }
  const std::string path = dir + "/flight_" + std::to_string(getpid()) + "_" +
                           std::to_string(seq) + ".json";
  const std::string json = SnapshotJson(0);
  std::ofstream out(path, std::ios::trunc);
  out << json;
  out.close();
  if (!out) {
    return Status::Internal("cannot write flight artifact " + path);
  }
  return path;
}

uint64_t FlightRecorder::overwritten() const {
  MutexLock lock(mu_);
  return total_ > ring_.size() ? total_ - ring_.size() : 0;
}

size_t FlightRecorder::size() const {
  MutexLock lock(mu_);
  return ring_.size();
}

void FlightRecorder::ResetForTest() {
  MutexLock lock(mu_);
  ring_.clear();
  next_ = 0;
  total_ = 0;
  dump_reasons_.clear();
}

}  // namespace bmr::obs
