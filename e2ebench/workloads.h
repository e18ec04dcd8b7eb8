// The benchmark's three workloads: input generation from a seed, the
// cluster each runs on, the job it runs, and a single-threaded
// reference that recomputes the expected output from the same input.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/status.h"
#include "core/partial_store.h"
#include "mr/engine.h"
#include "mr/job.h"
#include "mr/types.h"

namespace e2ebench {

using bmr::Status;
using bmr::StatusOr;

struct InputFile {
  std::string path;
  std::string contents;
};

enum class App { kWordCount, kLastFm, kGrep };

struct Workload {
  App app = App::kWordCount;
  bmr::cluster::ClusterSpec cluster;
  bmr::core::StoreConfig store;
  std::string grep_pattern;
  std::vector<InputFile> files;
  uint64_t input_bytes = 0;
  /// Reference output, sorted by (key, value).
  std::vector<bmr::mr::Record> expected;
};

/// Names accepted by MakeWorkload, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Generate the workload's input from `seed` and compute its reference
/// output.  Spill files go under `scratch_dir`.  InvalidArgument for an
/// unknown name.
[[nodiscard]] StatusOr<Workload> MakeWorkload(const std::string& name,
                                              uint64_t seed,
                                              const std::string& scratch_dir);

/// Write the input files into the cluster's DFS, each from the client
/// of a slave node (rotating, so blocks spread over the cluster).
[[nodiscard]] Status WriteInputs(bmr::mr::ClusterContext* cluster,
                                 const Workload& workload,
                                 const std::string& prefix = "");

/// The workload's job in either mode, writing to `output_path`.
bmr::mr::JobSpec MakeJob(const Workload& workload, bool barrierless,
                         const std::string& output_path);

/// True when `output` (any order) equals the reference as a multiset.
bool MatchesReference(const Workload& workload,
                      std::vector<bmr::mr::Record> output);

/// Non-vacuity check of MatchesReference: perturbs a correct output in
/// three ways (a changed value, a dropped record, a duplicated record)
/// and returns true only if every perturbation is rejected.
bool ReferenceRejectsPerturbations(const Workload& workload,
                                   const std::vector<bmr::mr::Record>& good);

}  // namespace e2ebench
