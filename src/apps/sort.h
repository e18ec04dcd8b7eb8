// Sort — the Sorting Reduce class (§4.2, §6.1.1).
//
// The only class that *requires* key order in the output.  With a
// barrier the job is Identity code: the framework's shuffle merge-sort
// does all the work (range partitioning makes the concatenated part
// files globally sorted).  Without a barrier, the Reduce function must
// sort itself: the paper keeps a red-black tree keyed by value with a
// duplicate count as the partial result — the degenerate case where
// barrier-less MapReduce is a little *slower* (RB insert loses to merge
// sort).  Here the partial store folds through a hash index, so the
// O(n log n) sort lands in finalize, when the store emits in key order.
#pragma once

#include "apps/app.h"

namespace bmr::apps {

/// Options.extra keys: "sort.min" / "sort.max" (int64 range of the
/// input values, for the range partitioner; defaults 0 / 1000000).
mr::JobSpec MakeSortJob(const AppOptions& options);

}  // namespace bmr::apps
