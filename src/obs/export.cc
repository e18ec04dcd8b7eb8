#include "obs/export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <set>
#include <vector>

#include "obs/metric_names.h"

namespace bmr::obs {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += "\"";
  return out;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

double Micros(double seconds) { return seconds * 1e6; }

}  // namespace

std::string PerfettoTraceJson(const TraceLog& log) {
  std::vector<const Span*> spans;
  spans.reserve(log.spans.size());
  for (const Span& s : log.spans) spans.push_back(&s);
  std::stable_sort(spans.begin(), spans.end(),
                   [](const Span* a, const Span* b) {
                     if (a->start_s != b->start_s) {
                       return a->start_s < b->start_s;
                     }
                     return a->id < b->id;
                   });

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto comma = [&] {
    if (!first) out += ",\n";
    first = false;
  };

  // Process metadata for every pid in use (pid 1 = engine threads,
  // pid 2 = task lanes, others as the caller assigns).
  std::set<int> pids;
  for (const Span* s : spans) pids.insert(s->pid);
  for (const TrackInfo& t : log.tracks) pids.insert(t.pid);
  for (const CounterSample& c : log.counters) pids.insert(c.pid);
  for (const Instant& i : log.instants) pids.insert(i.pid);
  for (int pid : pids) {
    comma();
    const char* name = pid == 1 ? "bmr-engine" : pid == 2 ? "bmr-tasks" : "bmr";
    out += "{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
           ",\"name\":\"process_name\",\"args\":{\"name\":\"" + name + "\"}}";
  }
  for (const TrackInfo& t : log.tracks) {
    comma();
    out += "{\"ph\":\"M\",\"pid\":" + std::to_string(t.pid) +
           ",\"tid\":" + std::to_string(t.tid) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":" +
           JsonString(t.name) + "}}";
  }

  for (const Span* s : spans) {
    comma();
    double dur = Micros(s->end_s - s->start_s);
    if (dur < 0) dur = 0;
    out += "{\"ph\":\"X\",\"pid\":" + std::to_string(s->pid) +
           ",\"tid\":" + std::to_string(s->tid) +
           ",\"ts\":" + JsonNumber(Micros(s->start_s)) +
           ",\"dur\":" + JsonNumber(dur) +
           ",\"name\":" + JsonString(s->name) +
           ",\"cat\":" + JsonString(s->category) +
           ",\"args\":{\"span\":" + std::to_string(s->id) +
           ",\"parent\":" + std::to_string(s->parent);
    if (s->arg >= 0) out += ",\"id\":" + std::to_string(s->arg);
    out += "}}";
  }

  for (const CounterSample& c : log.counters) {
    comma();
    out += "{\"ph\":\"C\",\"pid\":" + std::to_string(c.pid) +
           ",\"tid\":" + std::to_string(c.tid) +
           ",\"ts\":" + JsonNumber(Micros(c.t_s)) + ",\"name\":" +
           JsonString(c.name) + ",\"args\":{\"value\":" +
           JsonNumber(c.value) + "}}";
  }

  for (const Instant& i : log.instants) {
    comma();
    out += "{\"ph\":\"i\",\"s\":\"p\",\"pid\":" + std::to_string(i.pid) +
           ",\"tid\":" + std::to_string(i.tid) +
           ",\"ts\":" + JsonNumber(Micros(i.t_s)) +
           ",\"name\":" + JsonString(i.name) +
           ",\"cat\":" + JsonString(i.category) + "}";
  }

  out += "]}\n";
  return out;
}

namespace {

/// Splits a registered series name that may carry an embedded label
/// set (`bmr_rpc_call_us{transport="tcp"}`) into the bare family name
/// and the braced label block ("" when unlabeled).  TYPE lines must
/// name the family, never a labeled child, or the exposition is
/// malformed.
void SplitLabels(const std::string& name, std::string* base,
                 std::string* labels) {
  *base = name;
  labels->clear();
  size_t brace = name.find('{');
  if (brace != std::string::npos && name.back() == '}') {
    *base = name.substr(0, brace);
    *labels = name.substr(brace + 1, name.size() - brace - 2);
  }
}

void AppendHistogram(std::string* out, const std::string& name,
                     const LogHistogram& h) {
  // A registered name may carry a label set (metric_names.h declares
  // e.g. bmr_rpc_call_us{transport="tcp"}); the labels re-attach to
  // every series of the family after the _bucket/_sum/_count suffix,
  // with `le` kept last as Prometheus convention expects.
  std::string base;
  std::string labels;
  SplitLabels(name, &base, &labels);
  const std::string plain = labels.empty() ? "" : "{" + labels + "}";
  const std::string le_open =
      labels.empty() ? "{le=\"" : "{" + labels + ",le=\"";
  *out += "# TYPE " + base + " histogram\n";
  const std::vector<uint64_t>& buckets = h.buckets();
  size_t last = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] != 0) last = b;
  }
  uint64_t cumulative = 0;
  for (size_t b = 0; b <= last; ++b) {
    cumulative += buckets[b];
    uint64_t le = b == 0 ? 0 : (1ull << b) - 1;
    *out += base + "_bucket" + le_open + std::to_string(le) + "\"} " +
            std::to_string(cumulative) + "\n";
  }
  *out += base + "_bucket" + le_open + "+Inf\"} " +
          std::to_string(h.count()) + "\n";
  *out += base + "_sum" + plain + " " + std::to_string(h.sum()) + "\n";
  *out += base + "_count" + plain + " " + std::to_string(h.count()) + "\n";
}

}  // namespace

std::string PrometheusText(const MetricsSnapshot& snap) {
  std::string out;

  // Fired faults first, as one labeled family (satellite: chaos runs
  // must surface in the exposition), then the plain job counters.
  const size_t fault_prefix_len = std::strlen(kCtrFaultInjectedPrefix);
  bool fault_type_emitted = false;
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind(kCtrFaultInjectedPrefix, 0) != 0) continue;
    if (!fault_type_emitted) {
      out += std::string("# TYPE ") + kPromFaultsInjected + " counter\n";
      fault_type_emitted = true;
    }
    out += std::string(kPromFaultsInjected) + "{kind=\"" +
           name.substr(fault_prefix_len) + "\"} " + std::to_string(value) +
           "\n";
  }
  // Counters already carrying the bmr_ prefix are full series names
  // (possibly labeled, e.g. bmr_service_jobs_done_total{pool="a"}):
  // they pass through verbatim with one TYPE line per family.  Bare
  // engine counters get the historical bmr_job_<name>_total mapping.
  std::set<std::string> counter_families;
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind(kCtrFaultInjectedPrefix, 0) == 0) continue;
    if (name.rfind("bmr_", 0) == 0) {
      std::string base;
      std::string labels;
      SplitLabels(name, &base, &labels);
      if (counter_families.insert(base).second) {
        out += "# TYPE " + base + " counter\n";
      }
      out += name + " " + std::to_string(value) + "\n";
      continue;
    }
    std::string series = kPromJobCounterPrefix + name + "_total";
    out += "# TYPE " + series + " counter\n";
    out += series + " " + std::to_string(value) + "\n";
  }

  // Same family/TYPE discipline for gauges: a labeled gauge used to
  // emit its label block inside the TYPE line (malformed) and one TYPE
  // line per child series.
  std::set<std::string> gauge_families;
  for (const auto& [name, value] : snap.gauges) {
    std::string base;
    std::string labels;
    SplitLabels(name, &base, &labels);
    if (gauge_families.insert(base).second) {
      out += "# TYPE " + base + " gauge\n";
    }
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.6f", value);
    out += name + " " + buf + "\n";
  }

  for (const auto& [name, h] : snap.histograms) {
    AppendHistogram(&out, name, h);
  }
  return out;
}

std::string FormatHistogramSummaries(
    const std::map<std::string, LogHistogram>& histograms) {
  std::string out;
  for (const auto& [name, h] : histograms) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%-36s count %-8" PRIu64 " mean %-10.1f p50<=%-8" PRIu64
                  " p95<=%-8" PRIu64 " p99<=%-8" PRIu64 " max %" PRIu64 "\n",
                  name.c_str(), h.count(), h.mean(), h.ApproxQuantile(0.50),
                  h.ApproxQuantile(0.95), h.ApproxQuantile(0.99), h.max());
    out += buf;
  }
  return out;
}

}  // namespace bmr::obs
