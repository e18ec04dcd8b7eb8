// Key index for the partial-result stores.  The paper's TreeMap pays
// an O(log n) comparison walk on every fold for an order needed only
// when a spill run is written or partials are emitted, so the stores
// fold through hash tables keyed by the key bytes (transparent: probed
// with a Slice, no key copy) and sort a view of them at those points.
// Key identity is byte equality; the comparator only orders keys.
#pragma once

#include <algorithm>
#include <functional>
#include <string_view>
#include <vector>

#include "mr/types.h"

namespace bmr::core {

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

/// Strict weak order on keys: the store's comparator, bytewise if null.
struct KeyLess {
  mr::KeyCompareFn cmp;
  bool operator()(Slice a, Slice b) const {
    return cmp ? cmp(a, b) < 0 : a.view() < b.view();
  }
};

/// The entries of a hash-indexed map in key order under `less`; valid
/// until the map rehashes or the entry is erased.
template <typename Map>
auto SortedByKey(Map& map, const KeyLess& less) {
  std::vector<typename Map::iterator> sorted;
  sorted.reserve(map.size());
  for (auto it = map.begin(); it != map.end(); ++it) sorted.push_back(it);
  std::sort(sorted.begin(), sorted.end(), [&less](auto a, auto b) {
    return less(Slice(a->first), Slice(b->first));
  });
  return sorted;
}

}  // namespace bmr::core
