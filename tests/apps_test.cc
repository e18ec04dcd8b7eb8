// Per-application tests: each of the seven Reduce classes, in both
// modes, checked against ground truth and against each other.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <set>
#include <tuple>

#include "apps/blackscholes.h"
#include "apps/genetic.h"
#include "apps/grep.h"
#include "apps/knn.h"
#include "apps/lastfm.h"
#include "apps/registry.h"
#include "apps/sort.h"
#include "apps/wordcount.h"
#include "common/rng.h"
#include "common/serde.h"
#include "mr/emitter.h"
#include "test_util.h"
#include "workload/generators.h"

namespace bmr {
namespace {

using mr::JobResult;
using mr::JobRunner;
using mr::Record;
using testutil::MakeTestCluster;

JobResult RunApp(mr::ClusterContext* cluster, mr::JobSpec spec) {
  JobRunner runner(cluster);
  return runner.Run(std::move(spec));
}

TEST(GrepAppTest, BothModesFindExactlyTheMatchingLines) {
  auto cluster = MakeTestCluster(3);
  std::string data;
  int expected_matches = 0;
  for (int i = 0; i < 500; ++i) {
    if (i % 7 == 0) {
      data += "needle line " + std::to_string(i) + "\n";
      ++expected_matches;
    } else {
      data += "hay " + std::to_string(i) + "\n";
    }
  }
  ASSERT_TRUE(cluster->client(1)->WriteFile("/grep/in", data).ok());

  // Match sets must agree across modes; arrival order may not.
  std::vector<Record> output = testutil::ExpectBarrierlessEquivalence(
      cluster.get(),
      [&](bool barrierless) {
        apps::AppOptions options;
        options.input_files = {"/grep/in"};
        options.output_path = barrierless ? "/grep/out-bl" : "/grep/out-b";
        options.num_reducers = 2;
        options.barrierless = barrierless;
        options.extra.Set("grep.pattern", "needle");
        return apps::MakeGrepJob(options);
      },
      testutil::SortedRecords);
  EXPECT_EQ(static_cast<int>(output.size()), expected_matches);
  for (const Record& r : output) {
    EXPECT_NE(r.value.find("needle"), std::string::npos);
  }
}

TEST(SortAppTest, BarrierlessOutputEqualsBarrierOutput) {
  auto cluster = MakeTestCluster(4);
  workload::IntGenOptions gen;
  gen.count = 10000;
  gen.seed = 23;
  auto files = workload::GenerateRandomInts(cluster.get(), "/in", gen);
  ASSERT_TRUE(files.ok());

  // Identical key sequences: same values, same (sorted) order.
  std::vector<Record> output = testutil::ExpectBarrierlessEquivalence(
      cluster.get(),
      [&](bool barrierless) {
        apps::AppOptions options;
        options.input_files = *files;
        options.output_path = barrierless ? "/out-bl" : "/out-b";
        options.num_reducers = 3;
        options.barrierless = barrierless;
        return apps::MakeSortJob(options);
      },
      testutil::KeySequence);
  EXPECT_EQ(output.size(), 10000u);
}

TEST(SortAppTest, OutputIsThePermutationOfInput) {
  auto cluster = MakeTestCluster(3);
  workload::IntGenOptions gen;
  gen.count = 5000;
  gen.seed = 4;
  auto files = workload::GenerateRandomInts(cluster.get(), "/in", gen);
  ASSERT_TRUE(files.ok());

  // Ground truth from the generated files.
  std::multiset<int64_t> expected;
  for (const auto& f : *files) {
    auto text = cluster->client(0)->ReadAll(f);
    ASSERT_TRUE(text.ok());
    size_t pos = 0;
    while (pos < text->size()) {
      size_t nl = text->find('\n', pos);
      if (nl == std::string::npos) nl = text->size();
      expected.insert(std::stoll(text->substr(pos, nl - pos)));
      pos = nl + 1;
    }
  }

  apps::AppOptions options;
  options.input_files = *files;
  options.output_path = "/out";
  options.num_reducers = 4;
  options.barrierless = true;
  JobResult result = RunApp(cluster.get(), apps::MakeSortJob(options));
  ASSERT_TRUE(result.ok());
  auto output = JobRunner::ReadAllOutput(cluster->client(0), result);
  ASSERT_TRUE(output.ok());
  std::multiset<int64_t> actual;
  for (const Record& r : *output) {
    int64_t v = 0;
    ASSERT_TRUE(DecodeOrderedI64(Slice(r.key), &v));
    actual.insert(v);
  }
  EXPECT_EQ(actual, expected);
}

std::map<int64_t, std::multiset<int64_t>> BruteForceKnn(
    const std::vector<int64_t>& training, const std::set<int64_t>& exps,
    int k) {
  std::map<int64_t, std::multiset<int64_t>> result;  // exp -> k distances
  for (int64_t exp : exps) {
    std::multiset<int64_t> dists;
    for (int64_t t : training) dists.insert(std::llabs(exp - t));
    std::multiset<int64_t> top;
    auto it = dists.begin();
    for (int i = 0; i < k && it != dists.end(); ++i, ++it) top.insert(*it);
    result[exp] = std::move(top);
  }
  return result;
}

TEST(KnnAppTest, BothModesMatchBruteForceDistances) {
  auto cluster = MakeTestCluster(3);
  workload::KnnGenOptions gen;
  gen.training_size = 60;
  gen.experimental_count = 400;
  gen.num_files = 2;
  gen.seed = 12;
  auto data = workload::GenerateKnnData(cluster.get(), "/knn", gen);
  ASSERT_TRUE(data.ok());

  // Collect the distinct experimental values for ground truth.
  std::set<int64_t> exps;
  for (const auto& f : data->experimental_files) {
    auto text = cluster->client(0)->ReadAll(f);
    ASSERT_TRUE(text.ok());
    size_t pos = 0;
    while (pos < text->size()) {
      size_t nl = text->find('\n', pos);
      if (nl == std::string::npos) nl = text->size();
      exps.insert(std::stoll(text->substr(pos, nl - pos)));
      pos = nl + 1;
    }
  }
  const int k = 5;
  auto expected = BruteForceKnn(data->training, exps, k);

  for (bool barrierless : {false, true}) {
    apps::AppOptions options;
    options.input_files = data->experimental_files;
    options.output_path = barrierless ? "/knn/out-bl" : "/knn/out-b";
    options.num_reducers = 2;
    options.barrierless = barrierless;
    options.extra.SetInt("knn.k", k);
    options.extra.Set("knn.training",
                      apps::EncodeTrainingSet(data->training));
    JobResult result = RunApp(cluster.get(), apps::MakeKnnJob(options));
    ASSERT_TRUE(result.ok()) << result.status;
    auto output = JobRunner::ReadAllOutput(cluster->client(0), result);
    ASSERT_TRUE(output.ok());

    std::map<int64_t, std::multiset<int64_t>> actual;
    for (const Record& r : *output) {
      int64_t exp = 0;
      ASSERT_TRUE(DecodeOrderedI64(Slice(r.key), &exp));
      apps::KnnNeighbor n;
      ASSERT_TRUE(apps::DecodeNeighbor(Slice(r.value), &n));
      actual[exp].insert(n.distance);
    }
    // Compare distance multisets (ties may pick different train values).
    EXPECT_EQ(actual, expected) << "barrierless=" << barrierless;
  }
}

TEST(LastFmAppTest, UniqueListenCountsMatchGroundTruth) {
  auto cluster = MakeTestCluster(3);
  workload::ListenGenOptions gen;
  gen.count = 20000;
  gen.num_users = 40;
  gen.num_tracks = 300;
  gen.seed = 77;
  auto files = workload::GenerateListens(cluster.get(), "/fm/in", gen);
  ASSERT_TRUE(files.ok());

  // Ground truth.
  std::map<std::string, std::set<std::string>> truth;
  for (const auto& f : *files) {
    auto text = cluster->client(0)->ReadAll(f);
    ASSERT_TRUE(text.ok());
    size_t pos = 0;
    while (pos < text->size()) {
      size_t nl = text->find('\n', pos);
      if (nl == std::string::npos) nl = text->size();
      std::string line = text->substr(pos, nl - pos);
      size_t space = line.find(' ');
      truth[line.substr(space + 1)].insert(line.substr(0, space));
      pos = nl + 1;
    }
  }

  // Both modes must produce the identical (track, count) multiset; the
  // barrier-less output is then checked against ground truth.
  std::vector<Record> output = testutil::ExpectBarrierlessEquivalence(
      cluster.get(),
      [&](bool barrierless) {
        apps::AppOptions options;
        options.input_files = *files;
        options.output_path = barrierless ? "/fm/out-bl" : "/fm/out-b";
        options.num_reducers = 3;
        options.barrierless = barrierless;
        return apps::MakeLastFmJob(options);
      },
      testutil::SortedRecords);
  ASSERT_EQ(output.size(), truth.size());
  for (const Record& r : output) {
    int64_t count = 0;
    ASSERT_TRUE(DecodeI64(Slice(r.value), &count));
    EXPECT_EQ(static_cast<size_t>(count), truth[r.key].size())
        << "track " << r.key;
  }
}

TEST(GeneticAppTest, OffspringCountEqualsPopulation) {
  auto cluster = MakeTestCluster(3);
  workload::PopulationGenOptions gen;
  gen.population = 6000;
  gen.seed = 5;
  auto files = workload::GeneratePopulation(cluster.get(), "/ga/in", gen);
  ASSERT_TRUE(files.ok());

  for (bool barrierless : {false, true}) {
    apps::AppOptions options;
    options.input_files = *files;
    options.output_path = barrierless ? "/ga/out-bl" : "/ga/out-b";
    options.num_reducers = 2;
    options.barrierless = barrierless;
    options.extra.SetInt("ga.window", 32);
    JobResult result = RunApp(cluster.get(), apps::MakeGeneticJob(options));
    ASSERT_TRUE(result.ok()) << result.status;
    auto output = JobRunner::ReadAllOutput(cluster->client(0), result);
    ASSERT_TRUE(output.ok());
    // One offspring per individual (windows always flush).
    EXPECT_EQ(output->size(), 6000u);
    // Every record is a valid (genome, fitness) pair.
    for (const Record& r : *output) {
      int64_t genome = 0, fitness = 0;
      ASSERT_TRUE(DecodeOrderedI64(Slice(r.key), &genome));
      ASSERT_TRUE(DecodeI64(Slice(r.value), &fitness));
      EXPECT_EQ(fitness,
                apps::GaFitness(static_cast<uint32_t>(genome)));
    }
  }
}

TEST(GeneticAppTest, SelectionPressureRaisesMeanFitness) {
  auto cluster = MakeTestCluster(2);
  workload::PopulationGenOptions gen;
  gen.population = 4000;
  gen.seed = 9;
  auto files = workload::GeneratePopulation(cluster.get(), "/ga/in", gen);
  ASSERT_TRUE(files.ok());

  apps::AppOptions options;
  options.input_files = *files;
  options.output_path = "/ga/out";
  options.num_reducers = 2;
  options.barrierless = true;
  options.extra.SetInt("ga.window", 64);
  JobResult result = RunApp(cluster.get(), apps::MakeGeneticJob(options));
  ASSERT_TRUE(result.ok());
  auto output = JobRunner::ReadAllOutput(cluster->client(0), result);
  ASSERT_TRUE(output.ok());
  double out_fitness = 0;
  for (const Record& r : *output) {
    int64_t f = 0;
    DecodeI64(Slice(r.value), &f);
    out_fitness += static_cast<double>(f);
  }
  out_fitness /= output->size();
  // Random 32-bit genomes average 16 set bits; tournament selection
  // must push the offspring mean clearly above that.
  EXPECT_GT(out_fitness, 16.5);
}

TEST(BlackScholesAppTest, MonteCarloMatchesClosedForm) {
  auto cluster = MakeTestCluster(3);
  workload::BlackScholesGenOptions gen;
  gen.num_mappers = 4;
  gen.iterations_per_mapper = 20000;
  gen.seed = 2;
  auto files =
      workload::GenerateBlackScholesUnits(cluster.get(), "/bs/in", gen);
  ASSERT_TRUE(files.ok());

  double closed_form = apps::BlackScholesCallPrice(100, 100, 0.05, 0.2, 1.0);
  for (bool barrierless : {false, true}) {
    apps::AppOptions options;
    options.input_files = *files;
    options.output_path = barrierless ? "/bs/out-bl" : "/bs/out-b";
    options.barrierless = barrierless;
    JobResult result =
        RunApp(cluster.get(), apps::MakeBlackScholesJob(options));
    ASSERT_TRUE(result.ok()) << result.status;
    auto output = JobRunner::ReadAllOutput(cluster->client(0), result);
    ASSERT_TRUE(output.ok());
    ASSERT_EQ(output->size(), 1u);  // single reducer, single summary
    apps::BsSummary summary;
    ASSERT_TRUE(apps::DecodeBsSummary(Slice((*output)[0].value), &summary));
    EXPECT_EQ(summary.count, 80000);
    EXPECT_NEAR(summary.mean, closed_form, 0.25);
    EXPECT_GT(summary.stddev, 0);
  }
}

TEST(BlackScholesAppTest, ModesProduceIdenticalSums) {
  // Same seeded input => bit-identical running sums in both modes.
  auto cluster = MakeTestCluster(2);
  workload::BlackScholesGenOptions gen;
  gen.num_mappers = 2;
  gen.iterations_per_mapper = 5000;
  auto files =
      workload::GenerateBlackScholesUnits(cluster.get(), "/bs/in", gen);
  ASSERT_TRUE(files.ok());
  // Fold order differs across modes (sums reassociate): compare the
  // summaries to 9 significant digits.
  std::vector<Record> output = testutil::ExpectBarrierlessEquivalence(
      cluster.get(),
      [&](bool barrierless) {
        apps::AppOptions options;
        options.input_files = *files;
        options.output_path = barrierless ? "/out-bl" : "/out-b";
        options.barrierless = barrierless;
        return apps::MakeBlackScholesJob(options);
      },
      [](const std::vector<Record>& records) {
        std::vector<std::string> out;
        for (const Record& r : records) {
          apps::BsSummary s;
          EXPECT_TRUE(apps::DecodeBsSummary(Slice(r.value), &s));
          char buf[128];
          std::snprintf(buf, sizeof(buf), "%.9g/%.9g/%lld", s.mean, s.stddev,
                        static_cast<long long>(s.count));
          out.push_back(buf);
        }
        return out;
      });
  ASSERT_EQ(output.size(), 1u);
  apps::BsSummary summary;
  ASSERT_TRUE(apps::DecodeBsSummary(Slice(output[0].value), &summary));
  EXPECT_EQ(summary.count, 10000);
}

TEST(RegistryTest, SevenClassesRegistered) {
  const auto& apps = apps::AllApps();
  ASSERT_EQ(apps.size(), 7u);
  std::set<std::string> classes;
  for (const auto& app : apps) classes.insert(app.reduce_class);
  EXPECT_EQ(classes.size(), 7u);  // all distinct
  // Table 1: only Sort requires key order.
  for (const auto& app : apps) {
    EXPECT_EQ(app.key_sort_required, app.name == "sort") << app.name;
  }
  EXPECT_NE(apps::FindApp("wordcount"), nullptr);
  EXPECT_EQ(apps::FindApp("nonexistent"), nullptr);
}

TEST(WordCountWithStoresTest, AllThreeStoresAgree) {
  auto cluster = MakeTestCluster(3);
  workload::TextGenOptions gen;
  gen.total_bytes = 120 << 10;
  gen.vocabulary = 250;
  gen.seed = 88;
  auto files = workload::GenerateZipfText(cluster.get(), "/in", gen);
  ASSERT_TRUE(files.ok());

  std::map<std::string, std::string> reference;
  int idx = 0;
  for (core::StoreType type :
       {core::StoreType::kInMemory, core::StoreType::kSpillMerge,
        core::StoreType::kKvStore}) {
    apps::AppOptions options;
    options.input_files = *files;
    options.output_path = "/out-" + std::to_string(idx++);
    options.num_reducers = 2;
    options.barrierless = true;
    options.store.type = type;
    options.store.spill_threshold_bytes = 8 << 10;  // force spills
    options.store.kv_cache_bytes = 8 << 10;         // force evictions
    JobResult result = RunApp(cluster.get(), apps::MakeWordCountJob(options));
    ASSERT_TRUE(result.ok()) << core::StoreTypeName(type) << ": "
                             << result.status;
    auto output = JobRunner::ReadAllOutput(cluster->client(0), result);
    ASSERT_TRUE(output.ok());
    auto as_map = testutil::AsMap(*output);
    if (reference.empty()) {
      reference = as_map;
    } else {
      EXPECT_EQ(as_map, reference) << core::StoreTypeName(type);
    }
  }
}

// ---- Barrier-less folds against reference containers ----------------
//
// Last.fm and kNN fold over their partials' bytes in place, so each is
// checked here against a plain container: random record sequences are
// cut at random spill boundaries, every fragment is folded from
// InitPartial, and the fragments are merged in both groupings.  Every
// partial must equal the reference encoding byte for byte.

std::unique_ptr<core::IncrementalReducer> IncrementalOf(
    mr::JobSpec (*make)(const apps::AppOptions&), const Config& extra) {
  apps::AppOptions options;
  options.barrierless = true;
  options.extra = extra;
  std::unique_ptr<core::IncrementalReducer> reducer =
      make(options).incremental();
  reducer->Setup(extra);
  return reducer;
}

/// Folds `values` the way a spilling store does and checks each step.
/// `expect(begin, end)` is the reference partial of values[begin, end).
/// Returns the partial of all values.
std::string FoldInFragments(
    core::IncrementalReducer* reducer, const std::vector<std::string>& values,
    Pcg32* rng,
    const std::function<std::string(size_t, size_t)>& expect) {
  std::vector<std::string> fragments;
  size_t begin = 0;
  while (begin < values.size() || fragments.empty()) {
    // Some fragments are empty: a key can spill with an untouched partial.
    size_t len = rng->NextBounded(4) == 0
                     ? 0
                     : rng->NextBounded(
                           static_cast<uint32_t>(values.size() - begin + 1));
    std::string partial = reducer->InitPartial("key");
    for (size_t i = begin; i < begin + len; ++i) {
      reducer->Update("key", values[i], &partial, nullptr);
    }
    EXPECT_EQ(partial, expect(begin, begin + len));
    fragments.push_back(std::move(partial));
    begin += len;
  }
  std::string left = fragments.front();
  for (size_t i = 1; i < fragments.size(); ++i) {
    left = reducer->MergePartials("key", left, fragments[i]);
  }
  std::string right = fragments.back();
  for (size_t i = fragments.size() - 1; i-- > 0;) {
    right = reducer->MergePartials("key", fragments[i], right);
  }
  EXPECT_EQ(left, expect(0, values.size()));
  EXPECT_EQ(right, left) << "MergePartials must be associative";
  return left;
}

std::vector<Record> FinishOf(core::IncrementalReducer* reducer,
                             const std::string& partial) {
  std::vector<Record> out;
  mr::VectorEmitter<std::vector<Record>> emitter(&out);
  reducer->Finish("key", partial, &emitter);
  return out;
}

TEST(LastFmFoldTest, MatchesStdSetByteForByte) {
  auto reducer = IncrementalOf(apps::MakeLastFmJob, Config());
  // Byte prefixes of each other ("4" < "40" < "400" < "41") and users on
  // both sides of the one-byte varint length limit, including a
  // 128-byte user that sorts between two others of 127 and 128 bytes.
  const std::vector<std::string> edge_users = {
      "",  "4", "40", "400", "41", "5", "\xff", std::string("a\0b", 3),
      std::string(127, 'u'), std::string(128, 'u'),
      std::string(127, 'u') + "a", std::string(300, 'z')};
  Pcg32 rng(61);
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<std::string> users;
    size_t n = rng.NextBounded(48);
    for (size_t i = 0; i < n; ++i) {
      users.push_back(rng.NextBounded(2) == 0
                          ? edge_users[rng.NextBounded(edge_users.size())]
                          : std::to_string(rng.NextBounded(500)));
    }
    auto reference = [&users](size_t begin, size_t end) {
      std::set<std::string> set(users.begin() + begin, users.begin() + end);
      ByteBuffer buf;
      Encoder enc(&buf);
      for (const std::string& user : set) enc.PutString(user);
      return buf.ToString();
    };
    std::string merged = FoldInFragments(reducer.get(), users, &rng, reference);
    std::set<std::string> all(users.begin(), users.end());
    std::vector<Record> expected = {
        {"key", EncodeI64(static_cast<int64_t>(all.size()))}};
    EXPECT_EQ(FinishOf(reducer.get(), merged), expected) << "trial " << trial;
  }
}

TEST(KnnFoldTest, MatchesSortedVectorByteForByte) {
  Pcg32 rng(62);
  for (int64_t k : {1, 2, 5, 10}) {
    Config config;
    config.SetInt("knn.k", k);
    auto reducer = IncrementalOf(apps::MakeKnnJob, config);
    for (int trial = 0; trial < 150; ++trial) {
      // Few distances and train values, so ties on distance (and exact
      // duplicates) are common; a few wide values exercise long varints.
      std::vector<apps::KnnNeighbor> neighbors;
      size_t n = rng.NextBounded(40);
      for (size_t i = 0; i < n; ++i) {
        apps::KnnNeighbor nb;
        nb.distance = rng.NextBounded(8) == 0 ? (int64_t{1} << 50)
                                               : rng.NextInRange(0, 5);
        nb.train_value = rng.NextBounded(8) == 0 ? -(int64_t{1} << 62)
                                                  : rng.NextInRange(-6, 6);
        neighbors.push_back(nb);
      }
      auto top_k = [&neighbors, k](size_t begin, size_t end) {
        std::vector<apps::KnnNeighbor> sorted(neighbors.begin() + begin,
                                              neighbors.begin() + end);
        std::sort(sorted.begin(), sorted.end(), [](const auto& a,
                                                   const auto& b) {
          return std::tie(a.distance, a.train_value) <
                 std::tie(b.distance, b.train_value);
        });
        sorted.resize(std::min(sorted.size(), static_cast<size_t>(k)));
        return sorted;
      };
      auto reference = [&top_k](size_t begin, size_t end) {
        ByteBuffer buf;
        Encoder enc(&buf);
        for (const auto& nb : top_k(begin, end)) {
          enc.PutString(apps::EncodeNeighbor(nb));
        }
        return buf.ToString();
      };
      std::vector<std::string> values;
      for (const auto& nb : neighbors) {
        values.push_back(apps::EncodeNeighbor(nb));
      }
      std::string merged =
          FoldInFragments(reducer.get(), values, &rng, reference);
      std::vector<Record> expected;
      for (const auto& nb : top_k(0, n)) {
        expected.push_back({"key", apps::EncodeNeighbor(nb)});
      }
      EXPECT_EQ(FinishOf(reducer.get(), merged), expected)
          << "k=" << k << " trial " << trial;
    }
  }
}

}  // namespace
}  // namespace bmr
