#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "apps/app.h"
#include "apps/grep.h"
#include "apps/lastfm.h"
#include "apps/wordcount.h"
#include "common/serde.h"

namespace e2ebench {

using bmr::mr::Record;

namespace {

constexpr uint64_t kMiB = 1ull << 20;
constexpr int kNumFiles = 4;
constexpr int kNumReducers = 4;

/// SplitMix64: the benchmark owns its generator so that its inputs stay
/// fixed for a seed whatever the engine's own RNGs do.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  uint64_t Below(uint64_t n) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * n) >> 64);
  }

 private:
  uint64_t state_;
};

uint64_t FileSeed(uint64_t seed, uint64_t salt, int file) {
  return seed * 0x100000001b3ull ^ salt ^ (static_cast<uint64_t>(file) << 48);
}

/// Lines of `words_per_line` zipf(1.0)-distributed words "w<rank>".
std::vector<InputFile> ZipfText(uint64_t total_bytes, uint64_t vocabulary,
                                uint64_t seed, uint64_t salt,
                                const std::string& stem) {
  constexpr int kWordsPerLine = 10;
  std::vector<double> cdf(vocabulary);
  std::vector<std::string> words(vocabulary);
  double sum = 0;
  for (uint64_t r = 0; r < vocabulary; ++r) {
    sum += 1.0 / static_cast<double>(r + 1);
    cdf[r] = sum;
    words[r] = "w" + std::to_string(r);
  }
  for (double& c : cdf) c /= sum;
  std::vector<InputFile> files;
  for (int f = 0; f < kNumFiles; ++f) {
    Rng rng(FileSeed(seed, salt, f));
    InputFile file{stem + "-" + std::to_string(f) + ".txt", ""};
    const uint64_t target = total_bytes / kNumFiles;
    file.contents.reserve(target + 256);
    while (file.contents.size() < target) {
      for (int w = 0; w < kWordsPerLine; ++w) {
        auto it = std::upper_bound(cdf.begin(), cdf.end(), rng.NextDouble());
        uint64_t rank = std::min<uint64_t>(it - cdf.begin(), vocabulary - 1);
        if (w > 0) file.contents += ' ';
        file.contents += words[rank];
      }
      file.contents += '\n';
    }
    files.push_back(std::move(file));
  }
  return files;
}

/// "u<user> t<track>" lines, both uniform.
std::vector<InputFile> Listens(uint64_t count, uint64_t users, uint64_t tracks,
                               uint64_t seed, uint64_t salt,
                               const std::string& stem) {
  std::vector<InputFile> files;
  for (int f = 0; f < kNumFiles; ++f) {
    Rng rng(FileSeed(seed, salt, f));
    InputFile file{stem + "-" + std::to_string(f) + ".log", ""};
    for (uint64_t i = 0; i < count / kNumFiles; ++i) {
      file.contents += 'u';
      file.contents += std::to_string(rng.Below(users));
      file.contents += " t";
      file.contents += std::to_string(rng.Below(tracks));
      file.contents += '\n';
    }
    files.push_back(std::move(file));
  }
  return files;
}

/// Calls fn(byte_offset, line) for every newline-terminated line.
template <typename Fn>
void ForEachLine(const std::string& text, Fn fn) {
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    fn(pos, std::string_view(text).substr(pos, nl - pos));
    pos = nl + 1;
  }
}

std::vector<Record> WordCountReference(const std::vector<InputFile>& files) {
  std::unordered_map<std::string_view, int64_t> counts;
  for (const InputFile& file : files) {
    ForEachLine(file.contents, [&](size_t, std::string_view line) {
      size_t pos = 0;
      while (pos < line.size()) {
        size_t space = line.find(' ', pos);
        if (space == std::string_view::npos) space = line.size();
        if (space > pos) ++counts[line.substr(pos, space - pos)];
        pos = space + 1;
      }
    });
  }
  std::vector<Record> out;
  out.reserve(counts.size());
  for (const auto& [word, n] : counts) {
    out.emplace_back(std::string(word), bmr::apps::EncodeCount(n));
  }
  return out;
}

std::vector<Record> UniqueListenersReference(
    const std::vector<InputFile>& files) {
  std::vector<std::pair<std::string_view, std::string_view>> pairs;
  for (const InputFile& file : files) {
    ForEachLine(file.contents, [&](size_t, std::string_view line) {
      size_t space = line.find(' ');
      if (space == std::string_view::npos) return;
      pairs.emplace_back(line.substr(space + 1), line.substr(0, space));
    });
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  std::vector<Record> out;
  for (size_t i = 0; i < pairs.size();) {
    size_t j = i;
    while (j < pairs.size() && pairs[j].first == pairs[i].first) ++j;
    out.emplace_back(std::string(pairs[i].first),
                     bmr::EncodeI64(static_cast<int64_t>(j - i)));
    i = j;
  }
  return out;
}

std::vector<Record> GrepReference(const std::vector<InputFile>& files,
                                  const std::string& pattern) {
  std::vector<Record> out;
  for (const InputFile& file : files) {
    ForEachLine(file.contents, [&](size_t offset, std::string_view line) {
      if (line.find(pattern) != std::string_view::npos) {
        out.emplace_back(std::to_string(offset), std::string(line));
      }
    });
  }
  return out;
}

bool RecordLess(const Record& a, const Record& b) {
  return a.key != b.key ? a.key < b.key : a.value < b.value;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"wc-mem", "lastfm-spill",
                                                 "grep-tcp"};
  return names;
}

StatusOr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                const std::string& scratch_dir) {
  Workload w;
  w.cluster = bmr::cluster::SmallCluster(2, 2, 2);
  w.cluster.transport = "inproc";
  w.store.scratch_dir = scratch_dir;
  if (name == "wc-mem") {
    // ~12 large maps; the reducers fold ~10M (word, 1) records.
    w.app = App::kWordCount;
    w.cluster.dfs_block_bytes = 4 * kMiB;
    w.store.type = bmr::core::StoreType::kInMemory;
    w.files = ZipfText(48 * kMiB, 50000, seed, 0x11, "/in/wc");
    w.expected = WordCountReference(w.files);
  } else if (name == "lastfm-spill") {
    // Partial state (a user set per track) well above the spill
    // threshold, so spill writes and the finalize merge dominate.
    w.app = App::kLastFm;
    w.cluster.dfs_block_bytes = 2 * kMiB;
    w.store.type = bmr::core::StoreType::kSpillMerge;
    w.store.spill_threshold_bytes = 1 * kMiB;
    w.files = Listens(2000000, 500, 50000, seed, 0x22, "/in/listens");
    w.expected = UniqueListenersReference(w.files);
  } else if (name == "grep-tcp") {
    // ~256 small maps over real sockets; a rare pattern, so reduce does
    // almost nothing.
    w.app = App::kGrep;
    w.cluster.transport = "tcp";
    w.cluster.dfs_block_bytes = 256 << 10;
    w.store.type = bmr::core::StoreType::kInMemory;
    w.grep_pattern = " w300 ";
    w.files = ZipfText(64 * kMiB, 50000, seed, 0x33, "/in/text");
    w.expected = GrepReference(w.files, w.grep_pattern);
  } else {
    return Status::InvalidArgument("unknown workload: " + name);
  }
  for (const InputFile& f : w.files) w.input_bytes += f.contents.size();
  std::sort(w.expected.begin(), w.expected.end(), RecordLess);
  return w;
}

Status WriteInputs(bmr::mr::ClusterContext* cluster, const Workload& workload,
                   const std::string& prefix) {
  std::vector<int> slaves = cluster->spec.SlaveIds();
  for (size_t f = 0; f < workload.files.size(); ++f) {
    const InputFile& file = workload.files[f];
    BMR_RETURN_IF_ERROR(cluster->client(slaves[f % slaves.size()])
                            ->WriteFile(prefix + file.path, file.contents));
  }
  return Status::Ok();
}

bmr::mr::JobSpec MakeJob(const Workload& workload, bool barrierless,
                         const std::string& output_path) {
  bmr::apps::AppOptions options;
  for (const InputFile& f : workload.files) {
    options.input_files.push_back(f.path);
  }
  options.output_path = output_path;
  options.num_reducers = kNumReducers;
  options.barrierless = barrierless;
  options.store = workload.store;
  switch (workload.app) {
    case App::kWordCount:
      return bmr::apps::MakeWordCountJob(options);
    case App::kLastFm:
      return bmr::apps::MakeLastFmJob(options);
    case App::kGrep:
      options.extra.Set("grep.pattern", workload.grep_pattern);
      return bmr::apps::MakeGrepJob(options);
  }
  return {};
}

bool MatchesReference(const Workload& workload, std::vector<Record> output) {
  std::sort(output.begin(), output.end(), RecordLess);
  return output == workload.expected;
}

bool ReferenceRejectsPerturbations(const Workload& workload,
                                   const std::vector<Record>& good) {
  if (good.empty() || !MatchesReference(workload, good)) return false;
  std::vector<Record> changed = good;
  changed[changed.size() / 2].value += '\x01';
  std::vector<Record> dropped(good.begin(), good.end() - 1);
  std::vector<Record> duplicated = good;
  duplicated.push_back(good.front());
  return !MatchesReference(workload, changed) &&
         !MatchesReference(workload, dropped) &&
         !MatchesReference(workload, duplicated);
}

}  // namespace e2ebench
