#include "faults/fault_injector.h"

#include <chrono>
#include <thread>

#include "faults/internal.h"

namespace bmr::faults {

using internal::EventState;

struct FaultInjector::State {
  std::vector<EventState> events;
};

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)), state_(std::make_unique<State>()) {
  for (const FaultEvent& e : plan_.events) state_->events.emplace_back(e);
}

FaultInjector::~FaultInjector() = default;

void FaultInjector::BindCrash(CrashFn fn) {
  MutexLock lock(mu_);
  crash_ = std::move(fn);
}

void FaultInjector::SetClock(ClockFn fn) {
  MutexLock lock(mu_);
  clock_ = std::move(fn);
}

void FaultInjector::LogFired(FaultKind kind, int node) {
  double t = clock_ ? clock_() : 0;
  log_.push_back(FaultRecord{kind, node, t});
  fired_[std::string("fault_injected_") + FaultKindName(kind)]++;
}

Status FaultInjector::OnRpcCall(int src, int dst, const std::string& method,
                                int* duplicates) {
  (void)src;
  *duplicates = 0;
  // Decide under the lock, act (sleep / crash / fail) outside it: the
  // crash callback re-enters the transport and must not see our mutex held.
  bool drop = false;
  double delay_ms = 0;
  int crash_node = -1;
  CrashFn crash;
  {
    MutexLock lock(mu_);
    for (EventState& s : state_->events) {
      switch (s.event.kind) {
        case FaultKind::kRpcDrop:
          if (internal::MatchesRpc(s.event, dst, method) && s.Tick()) {
            drop = true;
            LogFired(s.event.kind, dst);
          }
          break;
        case FaultKind::kRpcDelay:
          if (internal::MatchesRpc(s.event, dst, method) && s.Tick()) {
            delay_ms += s.event.delay_ms;
            LogFired(s.event.kind, dst);
          }
          break;
        case FaultKind::kRpcDuplicate:
          if (internal::MatchesRpc(s.event, dst, method) && s.Tick()) {
            *duplicates += 1;
            LogFired(s.event.kind, dst);
          }
          break;
        case FaultKind::kNodeCrash:
          // The trigger counts every transport call, whatever its target.
          if (s.Tick()) {
            crash_node = s.event.node;
            crash = crash_;
            LogFired(s.event.kind, s.event.node);
          }
          break;
        default:
          break;
      }
    }
  }
  if (delay_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(delay_ms));
  }
  if (crash_node >= 0 && crash) crash(crash_node);
  if (drop) {
    return Status::Unavailable("injected rpc drop: " + method);
  }
  return Status::Ok();
}

Status FaultInjector::OnShuffleFetch(int from_node, int at_node,
                                     int map_task) {
  (void)at_node;
  (void)map_task;
  MutexLock lock(mu_);
  for (EventState& s : state_->events) {
    if (s.event.kind != FaultKind::kFetchTimeout) continue;
    if (internal::MatchesNode(s.event, from_node) && s.Tick()) {
      LogFired(s.event.kind, from_node);
      return Status::Unavailable("injected shuffle fetch timeout");
    }
  }
  return Status::Ok();
}

bool FaultInjector::MaybeCorruptSegment(int from_node, int map_task,
                                        std::string* segment) {
  (void)map_task;
  if (segment->empty()) return false;  // nothing to truncate
  MutexLock lock(mu_);
  for (EventState& s : state_->events) {
    if (s.event.kind != FaultKind::kSegmentCorrupt) continue;
    if (internal::MatchesNode(s.event, from_node) && s.Tick()) {
      // Truncation guarantees the framed decode fails (a flipped value
      // byte could decode cleanly and silently corrupt the output).
      segment->pop_back();
      LogFired(s.event.kind, from_node);
      return true;
    }
  }
  return false;
}

Status FaultInjector::OnSpillWrite(const std::string& path) {
  MutexLock lock(mu_);
  for (EventState& s : state_->events) {
    if (s.event.kind != FaultKind::kSpillWriteError) continue;
    if (s.Tick()) {
      LogFired(s.event.kind, -1);
      return Status::Unavailable("injected spill write error: " + path);
    }
  }
  return Status::Ok();
}

Status FaultInjector::OnSpillRead(const std::string& path) {
  MutexLock lock(mu_);
  for (EventState& s : state_->events) {
    if (s.event.kind != FaultKind::kSpillReadError) continue;
    if (s.Tick()) {
      LogFired(s.event.kind, -1);
      return Status::Unavailable("injected spill read error: " + path);
    }
  }
  return Status::Ok();
}

bool FaultInjector::MaybeCorruptSpill(std::string* bytes) {
  if (bytes->empty()) return false;  // nothing to flip
  MutexLock lock(mu_);
  for (EventState& s : state_->events) {
    if (s.event.kind != FaultKind::kSpillCorrupt) continue;
    if (s.Tick()) {
      // The last byte is checksummed payload in both callers, and any
      // one-byte change alters an FNV-1a hash, so this is always caught.
      bytes->back() = static_cast<char>(bytes->back() ^ 0x01);
      LogFired(s.event.kind, -1);
      return true;
    }
  }
  return false;
}

std::vector<FaultInjector::FaultRecord> FaultInjector::DrainLog() {
  MutexLock lock(mu_);
  std::vector<FaultRecord> out;
  out.swap(log_);
  return out;
}

std::map<std::string, uint64_t> FaultInjector::CounterSnapshot() const {
  MutexLock lock(mu_);
  return fired_;
}

uint64_t FaultInjector::injected(FaultKind kind) const {
  MutexLock lock(mu_);
  auto it = fired_.find(std::string("fault_injected_") + FaultKindName(kind));
  return it == fired_.end() ? 0 : it->second;
}

}  // namespace bmr::faults
