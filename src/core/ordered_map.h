// Ordered (key → partial) map with a pluggable comparator — the role
// the paper's Java TreeMap (red-black tree) plays.  std::map is a
// red-black tree in every mainstream stdlib, so the asymptotics match
// the paper's analysis (O(log n) insert vs the framework's merge sort,
// which is what makes barrier-less Sort slightly lose in Fig. 6(a)).
//
// KeyLess is transparent: lookups take Slice directly (std::string
// converts implicitly), so the per-op key.ToString() heap allocation is
// gone from the store hot paths — only an actual *insert* materializes
// an owning std::string key.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "mr/types.h"

namespace bmr::core {

struct KeyLess {
  mr::KeyCompareFn cmp;  // null => bytewise

  using is_transparent = void;

  bool operator()(Slice a, Slice b) const {
    if (!cmp) return a.view() < b.view();
    return cmp(a, b) < 0;
  }
};

/// Transparent hash/equality for unordered containers keyed by
/// std::string: C++20 heterogeneous lookup lets the KV cache index be
/// probed with a Slice directly, no per-op key materialization.
struct SliceHash {
  using is_transparent = void;
  size_t operator()(Slice s) const {
    return std::hash<std::string_view>{}(s.view());
  }
};

struct SliceEq {
  using is_transparent = void;
  bool operator()(Slice a, Slice b) const { return a.view() == b.view(); }
};

using OrderedPartialMap = std::map<std::string, std::string, KeyLess>;

}  // namespace bmr::core
