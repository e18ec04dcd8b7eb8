// Block codecs for the shuffle wire format (ROADMAP item 3b).  Two
// implementations, both in-repo — the container must not grow deps:
//
//   "none"  memcpy pass-through (the degenerate baseline).
//   "lz4"   LZ4-*style* byte-oriented LZ77: greedy hash-table match
//           finder, 4-byte minimum match, varint-coded
//           (literal-run, match-length, offset) sequences.  Not the
//           LZ4 frame format — same family of trade-offs (speed over
//           ratio, trivially safe decode), our own wire layout.
//
// Codecs compress one *block* at a time (shuffle.block_bytes, default
// 64 KiB); the per-block container format — lengths, checksums, stored
// fallback for incompressible blocks — lives in common/block_container.h.
// Decompress() is written for untrusted input: every read and copy is
// bounds-checked, and output is exactly `raw_size` bytes or an error.
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "common/status.h"

namespace bmr {

class Codec {
 public:
  virtual ~Codec() = default;

  /// Stable registry name ("none", "lz4") — the shuffle.codec knob.
  virtual const char* name() const = 0;
  /// Wire id stamped on encoded blocks (0 is reserved for stored /
  /// uncompressed blocks; see common/block_container.h).
  virtual uint8_t id() const = 0;

  /// Compress `raw` onto the end of `out`.  Returns false when the
  /// encoded form would not be smaller than `raw` (caller stores the
  /// block raw instead); `out` is untouched in that case.
  virtual bool Compress(Slice raw, ByteBuffer* out) const = 0;

  /// Decompress `encoded` into out[0, raw_size).  `out` must have room
  /// for exactly raw_size bytes.  Any malformed input — truncated
  /// stream, out-of-range offset, output over- or underrun — fails.
  [[nodiscard]] virtual Status Decompress(Slice encoded, char* out,
                                          size_t raw_size) const = 0;
};

/// Look up a codec by knob value.  Unknown names are an error (a
/// mistyped knob must not silently run uncompressed).
[[nodiscard]] StatusOr<const Codec*> FindCodec(const std::string& name);

/// Look up a codec by wire id; null for unknown ids (untrusted input).
const Codec* CodecById(uint8_t id);

}  // namespace bmr
