// End-to-end benchmark driver: one workload per process, one job in
// flight at a time (closed loop, one client), every job's output
// checked against a single-threaded reference.
//
//   e2ebench --workdir DIR --workload NAME --seed N --seconds S --trace 0|1
//   e2ebench --workdir DIR --self-test
//
// With --trace 0 the last stdout line reports the end-to-end metrics;
// with --trace 1 the same timed loop runs, followed by decorated jobs
// and the stage replay, and the per-layer metrics are reported.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "layers.h"
#include "mr/engine.h"
#include "workloads.h"

namespace e2ebench {
namespace {

using bmr::mr::ClusterContext;
using bmr::mr::JobResult;
using bmr::mr::JobRunner;
using bmr::mr::JobSpec;

constexpr double kMiB = 1048576.0;
/// Setup is short and noisy, so it is repeated (at least kSetupRepeats
/// times and kSetupSeconds long) and its median reported.
constexpr int kSetupRepeats = 3;
constexpr double kSetupSeconds = 1.5;
/// Decorated jobs of each mode in the traced run.
constexpr int kTracedJobs = 2;
const char* const kOutputPath = "/out/e2ebench";

struct Args {
  std::string workload;
  std::string workdir;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool self_test = false;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The parts of a JobResult the per-layer report needs.
struct JobSample {
  double wall_s = 0;
  double last_map_done = 0;
  double elapsed = 0;
  uint64_t shuffle_bytes = 0;
  uint64_t maps_launched = 0;
  uint64_t maps_committed = 0;
  uint64_t fetch_retries = 0;
  uint64_t codec_raw = 0;
  uint64_t codec_wire = 0;
  uint64_t spills = 0;
};

class Bench {
 public:
  explicit Bench(Workload workload) : w_(std::move(workload)) {}

  /// Create the cluster and load the input repeatedly, keeping the
  /// last cluster; returns the median setup time.
  StatusOr<double> Setup() {
    std::vector<double> times;
    Clock::time_point begin = Clock::now();
    for (int i = 0; i < kSetupRepeats || Since(begin) < kSetupSeconds; ++i) {
      cluster_.reset();
      Clock::time_point start = Clock::now();
      cluster_ = ClusterContext::Create(w_.cluster);
      BMR_RETURN_IF_ERROR(WriteInputs(cluster_.get(), w_));
      times.push_back(Since(start));
    }
    std::fprintf(stderr, "  setup_s samples:");
    for (double t : times) std::fprintf(stderr, " %.4f", t);
    std::fprintf(stderr, "\n");
    return Median(times);
  }

  /// Run one job, time it around JobRunner::Run, check its output
  /// against the reference and delete it.  Returns false on failure
  /// (counted in failed()).  `first_output`, when set, receives the
  /// output for the perturbation check.
  bool RunJob(const JobSpec& spec, JobSample* sample,
              std::vector<bmr::mr::Record>* first_output = nullptr) {
    ++attempted_;
    JobRunner runner(cluster_.get());
    Clock::time_point start = Clock::now();
    JobResult result = runner.Run(spec);
    double wall = Since(start);
    bool ok = result.ok();
    if (ok) {
      auto output = JobRunner::ReadAllOutput(client(), result);
      ok = output.ok() && MatchesReference(w_, *output);
      if (!ok) std::fprintf(stderr, "e2ebench: output differs from reference\n");
      if (ok && first_output != nullptr) *first_output = std::move(*output);
    } else {
      std::fprintf(stderr, "e2ebench: job failed: %s\n",
                   result.status.ToString().c_str());
    }
    for (const std::string& path : result.output_files) {
      ok = client()->Delete(path).ok() && ok;
    }
    if (!ok) {
      ++failed_;
      return false;
    }
    if (sample != nullptr) {
      const bmr::mr::Counters& c = result.counters;
      *sample = JobSample{wall,
                          result.last_map_done,
                          result.elapsed_seconds,
                          c.Get(bmr::mr::kCtrShuffleBytes),
                          c.Get(bmr::mr::kCtrMapTasksLaunched),
                          c.Get(bmr::mr::kCtrMapTasksCommitted),
                          c.Get(bmr::mr::kCtrShuffleFetchRetries),
                          result.data_plane.codec_raw_bytes,
                          result.data_plane.codec_wire_bytes,
                          c.Get(bmr::mr::kCtrSpills)};
    }
    return true;
  }

  /// Untimed warm-up of both modes (thread pools, TCP connections),
  /// plus the non-vacuity check of the reference comparison.
  bool WarmUp() {
    std::vector<bmr::mr::Record> output;
    bool ok = RunJob(MakeJob(w_, true, kOutputPath), nullptr, &output);
    ok = RunJob(MakeJob(w_, false, kOutputPath), nullptr) && ok;
    if (ok && !ReferenceRejectsPerturbations(w_, output)) {
      std::fprintf(stderr, "e2ebench: reference check accepted a "
                           "perturbed output\n");
      ok = false;
    }
    return ok;
  }

  /// Alternate barrier-less and with-barrier jobs for `seconds`, at
  /// least one of each, swapping which goes first in each pair.
  void TimedLoop(double seconds) {
    Clock::time_point start = Clock::now();
    for (int i = 0; i < 2 || Since(start) < seconds; ++i) {
      bool barrierless = (i / 2 + i) % 2 == 0;
      JobSample s;
      if (RunJob(MakeJob(w_, barrierless, kOutputPath), &s)) {
        (barrierless ? barrierless_ : barrier_).push_back(s);
      }
    }
  }

  void EndToEnd(double setup_s, Metrics* out) const {
    PrintSamples("job_s", barrierless_);
    PrintSamples("barrier_job_s", barrier_);
    double job_s = Median(Walls(barrierless_));
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    out->push_back({"job_s", job_s, "s"});
    out->push_back({"barrier_job_s", Median(Walls(barrier_)), "s"});
    out->push_back({"input_mb_per_s",
                    job_s > 0 ? w_.input_bytes / kMiB / job_s : 0, "MB/s"});
    out->push_back({"setup_s", setup_s, "s"});
    out->push_back(
        {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024, "MB"});
    out->push_back({"ok_ratio",
                    static_cast<double>(attempted_ - failed_) / attempted_,
                    "ratio"});
  }

  /// Engine-reported counts and times of the timed jobs (mr layer).
  void EngineLayer(Metrics* out) const {
    auto median_of = [](const std::vector<JobSample>& v, auto field) {
      std::vector<double> x;
      for (const JobSample& s : v) x.push_back(field(s));
      return Median(x);
    };
    auto map_phase = [](const JobSample& s) { return s.last_map_done; };
    auto tail = [](const JobSample& s) { return s.elapsed - s.last_map_done; };
    uint64_t launched = 0, committed = 0, retries = 0, raw = 0, wire = 0;
    for (const JobSample& s : barrierless_) {
      launched += s.maps_launched;
      committed += s.maps_committed;
      retries += s.fetch_retries;
      raw += s.codec_raw;
      wire += s.codec_wire;
    }
    double jobs = static_cast<double>(std::max<size_t>(1, barrierless_.size()));
    out->push_back({"mr.map_phase_s", median_of(barrierless_, map_phase), "s"});
    out->push_back({"mr.tail_s", median_of(barrierless_, tail), "s"});
    out->push_back({"mr.tail_s.barrier", median_of(barrier_, tail), "s"});
    out->push_back({"mr.shuffle_mb",
                    median_of(barrierless_,
                              [](const JobSample& s) {
                                return s.shuffle_bytes / kMiB;
                              }),
                    "MB"});
    out->push_back({"mr.attempt_useful_ratio",
                    launched ? static_cast<double>(committed) / launched : 0,
                    "ratio"});
    out->push_back({"mr.fetch_retries", retries / jobs, "count"});
    out->push_back(
        {"mr.wire_ratio", raw ? static_cast<double>(wire) / raw : 0, "ratio"});
    out->push_back({"core.job_spills",
                    median_of(barrierless_,
                              [](const JobSample& s) {
                                return static_cast<double>(s.spills);
                              }),
                    "count"});
    out->push_back({"bench.job_samples",
                    static_cast<double>(barrierless_.size()), "count"});
    out->push_back({"bench.barrier_job_samples",
                    static_cast<double>(barrier_.size()), "count"});
  }

  /// Decorated jobs of both modes: user-code self time inside real
  /// runs, and the tracing overhead relative to the timed loop's
  /// barrier-less median.
  void AppLayer(Metrics* out) {
    AppTrace bl, b;
    std::vector<double> traced_walls;
    for (int i = 0; i < kTracedJobs; ++i) {
      JobSample s;
      bl.job_start = Clock::now();
      if (RunJob(DecorateApp(MakeJob(w_, true, kOutputPath), &bl), &s)) {
        traced_walls.push_back(s.wall_s);
      }
      b.job_start = Clock::now();
      (void)RunJob(DecorateApp(MakeJob(w_, false, kOutputPath), &b), nullptr);
    }
    const double n = kTracedJobs;
    auto est = [n](const std::atomic<uint64_t>& self,
                   const std::atomic<uint64_t>& sampled,
                   const std::atomic<uint64_t>& calls) {
      return AppTrace::Estimate(self, sampled, calls) / n;
    };
    auto first = [](const AppTrace& t) {
      return t.first_reduce_ns == UINT64_MAX ? 0.0 : 1e-9 * t.first_reduce_ns;
    };
    out->push_back({"apps.map_self_s",
                    est(bl.map_self_ns, bl.map_sampled, bl.map_calls), "s"});
    out->push_back({"apps.update_self_s",
                    est(bl.update_self_ns, bl.update_sampled, bl.update_calls),
                    "s"});
    out->push_back({"apps.update_calls", bl.update_calls / n, "count"});
    out->push_back({"apps.reduce_self_s",
                    est(b.reduce_self_ns, b.reduce_sampled, b.reduce_calls),
                    "s"});
    out->push_back({"apps.first_reduce_s", first(bl), "s"});
    out->push_back({"apps.first_reduce_s.barrier", first(b), "s"});
    double job_s = Median(Walls(barrierless_));
    out->push_back({"trace.overhead_ratio",
                    job_s > 0 ? Median(traced_walls) / job_s : 0, "ratio"});
    out->push_back({"trace.sample_every", static_cast<double>(kSampleEvery),
                    "count"});
  }

  Status Replay(Metrics* out) { return ReplayStages(w_, cluster_.get(), out); }

  int attempted() const { return attempted_; }
  int failed() const { return failed_; }

 private:
  static void PrintSamples(const char* name, const std::vector<JobSample>& v) {
    std::fprintf(stderr, "  %s samples:", name);
    for (const JobSample& s : v) std::fprintf(stderr, " %.3f", s.wall_s);
    std::fprintf(stderr, "\n");
  }

  static std::vector<double> Walls(const std::vector<JobSample>& v) {
    std::vector<double> walls;
    for (const JobSample& s : v) walls.push_back(s.wall_s);
    return walls;
  }

  bmr::dfs::DfsClient* client() { return cluster_->client(0); }

  Workload w_;
  std::unique_ptr<ClusterContext> cluster_;
  std::vector<JobSample> barrierless_;
  std::vector<JobSample> barrier_;
  int attempted_ = 0;
  int failed_ = 0;
};

void PrintResult(bool correct, int attempted, int failed,
                 const Metrics& metrics) {
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-32s %14.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    // JSON has no NaN or infinity; a stage with nothing to time reads 0.
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", v);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--self-test") {
      args->self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return !args->workdir.empty() && (args->self_test || !args->workload.empty());
}

/// Every workload: one job of each mode matches the reference, and the
/// reference rejects perturbed copies of a correct output.
int SelfTest(const std::string& workdir) {
  bool all_ok = true;
  for (const std::string& name : WorkloadNames()) {
    auto workload = MakeWorkload(name, 1, workdir);
    bool ok = workload.ok();
    if (ok) {
      Bench bench(std::move(*workload));
      ok = bench.Setup().ok() && bench.WarmUp();
    }
    std::fprintf(stderr, "self-test %-14s %s\n", name.c_str(),
                 ok ? "ok" : "FAILED");
    all_ok = all_ok && ok;
  }
  return all_ok ? 0 : 1;
}

/// Pin glibc malloc's policy before the first allocation.  By default
/// glibc raises its mmap threshold as large blocks are freed and trims
/// freed memory back to the kernel, and whether a process reached that
/// state varied from run to run: lastfm-spill set-up took 0.019 s in
/// some processes and 0.04 s in others, the gap being page faults.  A
/// fixed 32 MiB threshold and no trimming make freed memory stay in the
/// process for the next job in every run.  The engine's code paths are
/// unchanged, and peak RSS is still measured.
void PinAllocator() {
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
}

int Main(int argc, char** argv) {
  PinAllocator();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workdir DIR (--self-test | --workload NAME "
                 "[--seed N] [--seconds S] [--trace 0|1])\n");
    return 2;
  }
  if (args.self_test) return SelfTest(args.workdir);

  auto workload = MakeWorkload(args.workload, args.seed, args.workdir);
  if (!workload.ok()) {
    std::fprintf(stderr, "e2ebench: %s\n",
                 workload.status().ToString().c_str());
    return 2;
  }
  Bench bench(std::move(*workload));
  auto setup_s = bench.Setup();
  if (!setup_s.ok()) {
    std::fprintf(stderr, "e2ebench: setup failed: %s\n",
                 setup_s.status().ToString().c_str());
    return 1;
  }
  bool correct = bench.WarmUp();
  bench.TimedLoop(args.seconds);

  Metrics metrics;
  if (!args.trace) {
    bench.EndToEnd(*setup_s, &metrics);
  } else {
    bench.EngineLayer(&metrics);
    bench.AppLayer(&metrics);
    Status replay = bench.Replay(&metrics);
    if (!replay.ok()) {
      std::fprintf(stderr, "e2ebench: stage replay failed: %s\n",
                   replay.ToString().c_str());
      correct = false;
    }
  }
  correct = correct && bench.failed() == 0;
  PrintResult(correct, bench.attempted(), bench.failed(), metrics);
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) { return e2ebench::Main(argc, argv); }
