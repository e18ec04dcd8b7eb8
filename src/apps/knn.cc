#include "apps/knn.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>

#include "common/serde.h"
#include "core/incremental.h"
#include "mr/api.h"
#include "mr/partition.h"

namespace bmr::apps {

std::string EncodeTrainingSet(const std::vector<int64_t>& training) {
  std::string out;
  for (size_t i = 0; i < training.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(training[i]);
  }
  return out;
}

std::vector<int64_t> DecodeTrainingSet(const std::string& encoded) {
  std::vector<int64_t> out;
  size_t pos = 0;
  while (pos < encoded.size()) {
    size_t comma = encoded.find(',', pos);
    if (comma == std::string::npos) comma = encoded.size();
    int64_t v = 0;
    std::from_chars(encoded.data() + pos, encoded.data() + comma, v);
    out.push_back(v);
    pos = comma + 1;
  }
  return out;
}

std::string EncodeNeighbor(const KnnNeighbor& n) {
  return EncodeOrderedI64(n.distance) + EncodeI64(n.train_value);
}

bool DecodeNeighbor(Slice value, KnnNeighbor* n) {
  if (value.size() < 8) return false;
  if (!DecodeOrderedI64(Slice(value.data(), 8), &n->distance)) return false;
  return DecodeI64(Slice(value.data() + 8, value.size() - 8),
                   &n->train_value);
}

namespace {

int64_t ParseI64(Slice s) {
  int64_t v = 0;
  std::from_chars(s.data(), s.data() + s.size(), v);
  return v;
}

/// With barrier: key = (exp, distance) for the secondary sort.
class KnnBarrierMapper final : public mr::Mapper {
 public:
  void Setup(mr::MapContext* ctx) override {
    training_ = DecodeTrainingSet(ctx->config().GetString("knn.training"));
  }
  void Map(Slice /*key*/, Slice value, mr::MapContext* ctx) override {
    int64_t exp = ParseI64(value);
    for (int64_t train : training_) {
      int64_t dist = std::llabs(exp - train);
      std::string key = EncodeOrderedI64(exp) + EncodeOrderedI64(dist);
      std::string val = EncodeI64(train);
      ctx->Emit(Slice(key), Slice(val));
    }
  }

 private:
  std::vector<int64_t> training_;
};

/// With barrier: values arrive distance-sorted; keep the first k.
class KnnBarrierReducer final : public mr::Reducer {
 public:
  void Setup(mr::ReduceContext* ctx) override {
    k_ = ctx->config().GetInt("knn.k", 10);
  }
  void Reduce(Slice key, mr::ValuesIterator* values,
              mr::ReduceContext* ctx) override {
    // Group key: the first 8 bytes (exp).  Distance is bytes 8..16 of
    // the *sort* key of each record — but the grouped iterator hands us
    // only the first record's full key, so re-derive distance from
    // |exp - train| per value (identical by construction).
    Slice exp_key(key.data(), 8);
    int64_t exp = 0;
    DecodeOrderedI64(exp_key, &exp);
    int64_t emitted = 0;
    Slice value;
    while (values->Next(&value) && emitted < k_) {
      int64_t train = 0;
      DecodeI64(value, &train);
      KnnNeighbor n{std::llabs(exp - train), train};
      std::string encoded = EncodeNeighbor(n);
      ctx->Emit(exp_key, Slice(encoded));
      ++emitted;
    }
  }

 private:
  int64_t k_ = 10;
};

/// Without barrier: key = exp only; value carries (distance, train).
class KnnIncrementalMapper final : public mr::Mapper {
 public:
  void Setup(mr::MapContext* ctx) override {
    training_ = DecodeTrainingSet(ctx->config().GetString("knn.training"));
  }
  void Map(Slice /*key*/, Slice value, mr::MapContext* ctx) override {
    int64_t exp = ParseI64(value);
    std::string key = EncodeOrderedI64(exp);
    for (int64_t train : training_) {
      KnnNeighbor n{std::llabs(exp - train), train};
      std::string val = EncodeNeighbor(n);
      ctx->Emit(Slice(key), Slice(val));
    }
  }

 private:
  std::vector<int64_t> training_;
};

bool Closer(const KnnNeighbor& a, const KnnNeighbor& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.train_value < b.train_value;
}

/// Decodes the neighbour under `c`.  False at the end of the list and at
/// an entry that does not decode: the list is the entries before it.
bool NeighborAt(const StringCursor& c, KnnNeighbor* n) {
  return c.valid() && DecodeNeighbor(c.value(), n);
}

/// Partial result: concatenation of at most k length-prefixed
/// EncodeNeighbor entries, ascending by (distance, train value) — the
/// ordered linked list of §4.4.  Every operation works on those bytes
/// directly.
class KnnIncremental final : public core::IncrementalReducer {
 public:
  void Setup(const Config& config) override {
    k_ = static_cast<size_t>(config.GetInt("knn.k", 10));
  }

  void Update(Slice /*key*/, Slice value, std::string* partial,
              mr::ReduceEmitter* /*out*/) override {
    KnnNeighbor n;
    if (!DecodeNeighbor(value, &n)) return;
    StringCursor c{Slice(*partial)};
    KnnNeighbor current;
    size_t rank = 0;
    for (; NeighborAt(c, &current) && Closer(current, n); c.Next()) ++rank;
    if (rank >= k_) return;  // the list is full of closer neighbours
    size_t at = c.begin();
    // Keep k - rank - 1 entries after the insert point; the bytes past
    // them (and any that do not decode) are cut.
    for (size_t kept = rank + 1; kept < k_ && NeighborAt(c, &current);
         ++kept) {
      c.Next();
    }
    partial->resize(c.begin());
    InsertString(partial, at, value);
  }

  /// The k closest of both lists, merged in one pass.
  std::string MergePartials(Slice /*key*/, Slice a, Slice b) override {
    std::string merged;
    merged.reserve(a.size() + b.size());
    StringCursor ca(a);
    StringCursor cb(b);
    KnnNeighbor na;
    KnnNeighbor nb;
    for (size_t taken = 0; taken < k_; ++taken) {
      bool has_a = NeighborAt(ca, &na);
      bool has_b = NeighborAt(cb, &nb);
      if (!has_a && !has_b) break;
      StringCursor& take = !has_b || (has_a && !Closer(nb, na)) ? ca : cb;
      merged.append(take.entry().data(), take.entry().size());
      take.Next();
    }
    return merged;
  }

  void Finish(Slice key, Slice partial, mr::ReduceEmitter* out) override {
    KnnNeighbor n;
    for (StringCursor c(partial); NeighborAt(c, &n); c.Next()) {
      out->Emit(key, c.value());
    }
  }

 private:
  size_t k_ = 10;
};

int CompareFirst8(Slice a, Slice b) {
  Slice pa(a.data(), std::min<size_t>(8, a.size()));
  Slice pb(b.data(), std::min<size_t>(8, b.size()));
  return pa.Compare(pb);
}

}  // namespace

mr::JobSpec MakeKnnJob(const AppOptions& options) {
  mr::JobSpec spec = BaseJob("knn", options);
  if (options.barrierless) {
    spec.mapper = [] { return std::make_unique<KnnIncrementalMapper>(); };
    spec.incremental = [] { return std::make_unique<KnnIncremental>(); };
    // Keys are plain exp values; default bytewise sort and hash
    // partitioning apply.
  } else {
    spec.mapper = [] { return std::make_unique<KnnBarrierMapper>(); };
    spec.reducer = [] { return std::make_unique<KnnBarrierReducer>(); };
    // Secondary sort: order by the full (exp, distance) key, group and
    // partition by the exp prefix.
    spec.group_cmp = CompareFirst8;
    spec.partitioner = mr::PrefixHashPartition(8);
  }
  return spec;
}

}  // namespace bmr::apps
