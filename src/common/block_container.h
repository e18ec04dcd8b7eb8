// The one checksummed block container (GUIDE §13), for wire and disk:
// shuffle segments (what MapOutputStore stores and FetchSegment moves)
// and spill runs (core/spill_file.h) are both framed record streams
// carried in it.  A stream is carved into blocks of at most
// `block_bytes` raw bytes; each block is independently compressed (or
// stored verbatim when the codec cannot shrink it) and carries an
// FNV-1a checksum of its encoded bytes, verified *before* any
// decompression touches the data:
//
//   header  u8 magic 0xB5 | u8 version (1) | u8 codec id (diagnostic)
//           | varint raw_total
//   block*  varint raw_len | u8 flags (0 = stored, else codec wire id)
//           | varint enc_len | fixed64 fnv1a(enc) | enc bytes
//
// Blocks must cover exactly raw_total bytes with no trailing input.
// Decode allocates the raw buffer from BufferPool::Global(), so the
// zero-copy RecordBatch built on top of it recycles through the pool.
#pragma once

#include <memory>
#include <string>

#include "common/bytes.h"
#include "common/codec.h"
#include "common/status.h"

namespace bmr {

/// Hard ceiling on a decoded container (matches the transport framing
/// cap): untrusted headers cannot make us allocate more than this.
inline constexpr uint64_t kMaxSegmentRawBytes = 64ull << 20;
/// Default raw bytes per compression block (`shuffle.block_bytes`).
inline constexpr size_t kDefaultShuffleBlockBytes = 64 << 10;

struct SegmentEncodeStats {
  uint64_t raw_bytes = 0;
  uint64_t wire_bytes = 0;
};

/// Encode `raw` (a framed record stream) into the block container,
/// appending to `out`.  Never fails: incompressible blocks are stored.
void EncodeShuffleSegment(Slice raw, const Codec& codec, size_t block_bytes,
                          ByteBuffer* out, SegmentEncodeStats* stats = nullptr);

/// Decode a block container into its raw bytes (pool-backed buffer).
/// Verifies structure and every block checksum before decompressing;
/// any violation is DataLoss and `*raw` is untouched.  Safe on fully
/// untrusted input (fuzz-swept in tests/fuzz_decoders_test.cc).
[[nodiscard]] Status DecodeShuffleSegment(
    Slice wire, std::shared_ptr<const std::string>* raw);

}  // namespace bmr
