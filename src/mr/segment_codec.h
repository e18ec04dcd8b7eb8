// The block container (common/block_container.h) under its old `mr::`
// names, for code outside src/ that still spells them.
#pragma once

#include "common/block_container.h"

namespace bmr::mr {

using ::bmr::DecodeShuffleSegment;
using ::bmr::EncodeShuffleSegment;
using ::bmr::kDefaultShuffleBlockBytes;
using ::bmr::SegmentEncodeStats;

}  // namespace bmr::mr
