#include "apps/lastfm.h"

#include <set>

#include "common/serde.h"
#include "core/incremental.h"
#include "mr/api.h"

namespace bmr::apps {

namespace {

class ListenMapper final : public mr::Mapper {
 public:
  void Map(Slice /*key*/, Slice value, mr::MapContext* ctx) override {
    std::string_view line = value.view();
    size_t space = line.find(' ');
    if (space == std::string_view::npos) return;
    Slice user(line.data(), space);
    Slice track(line.data() + space + 1, line.size() - space - 1);
    ctx->Emit(track, user);
  }
};

/// With barrier: all listens for a track arrive together; a Set
/// deduplicates, then the post-processing step counts it.
class ListenReducer final : public mr::Reducer {
 public:
  void Reduce(Slice key, mr::ValuesIterator* values,
              mr::ReduceContext* ctx) override {
    std::set<std::string> users;
    Slice value;
    while (values->Next(&value)) users.insert(value.ToString());
    std::string count = EncodeI64(static_cast<int64_t>(users.size()));
    ctx->Emit(key, Slice(count));
  }
};

/// Without barrier: the per-track user set *is* the partial result,
/// serialized as length-prefixed strings in ascending std::string order
/// of the decoded user (not of the encoded bytes: "4" < "40" < "41"
/// whatever their length prefixes).  Every operation works on those
/// bytes directly.
class ListenIncremental final : public core::IncrementalReducer {
 public:
  void Update(Slice /*key*/, Slice value, std::string* partial,
              mr::ReduceEmitter* /*out*/) override {
    StringCursor c{Slice(*partial)};
    while (c.valid() && c.value() < value) c.Next();
    if (c.valid() && c.value() == value) return;
    // Bytes past the decodable set are dropped, as re-encoding the
    // decoded set would.
    if (!c.valid()) partial->resize(c.begin());
    InsertString(partial, c.begin(), value);
  }

  /// Set union across spill fragments: a two-pointer merge that copies
  /// whole entries.
  std::string MergePartials(Slice /*key*/, Slice a, Slice b) override {
    std::string merged;
    merged.reserve(a.size() + b.size());
    StringCursor ca(a);
    StringCursor cb(b);
    while (ca.valid() || cb.valid()) {
      int order = !cb.valid()   ? -1
                  : !ca.valid() ? 1
                                : ca.value().Compare(cb.value());
      StringCursor& take = order <= 0 ? ca : cb;
      merged.append(take.entry().data(), take.entry().size());
      if (order == 0) cb.Next();
      take.Next();
    }
    return merged;
  }

  /// Post-processing: count the deduplicated set.
  void Finish(Slice key, Slice partial, mr::ReduceEmitter* out) override {
    int64_t users = 0;
    for (StringCursor c(partial); c.valid(); c.Next()) ++users;
    std::string count = EncodeI64(users);
    out->Emit(key, Slice(count));
  }
};

}  // namespace

mr::JobSpec MakeLastFmJob(const AppOptions& options) {
  mr::JobSpec spec = BaseJob("lastfm", options);
  spec.mapper = [] { return std::make_unique<ListenMapper>(); };
  spec.reducer = [] { return std::make_unique<ListenReducer>(); };
  spec.incremental = [] { return std::make_unique<ListenIncremental>(); };
  return spec;
}

}  // namespace bmr::apps
