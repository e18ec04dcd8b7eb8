// Serialization primitives: little-endian fixed ints, LEB128 varints,
// zigzag, length-prefixed strings, doubles.  This is the wire format for
// the RPC layer, the DFS block format, map-output segments and the
// partial-result spill files.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>

#include "common/bytes.h"

namespace bmr {

/// Appends primitive values to a ByteBuffer in bmr wire format.
class Encoder {
 public:
  explicit Encoder(ByteBuffer* out) : out_(out) {}

  void PutU8(uint8_t v) { out_->PushByte(v); }

  void PutFixed32(uint32_t v) {
    char buf[4];
    std::memcpy(buf, &v, 4);  // host is little-endian (x86-64)
    out_->Append(buf, 4);
  }

  void PutFixed64(uint64_t v) {
    char buf[8];
    std::memcpy(buf, &v, 8);
    out_->Append(buf, 8);
  }

  void PutVarint64(uint64_t v) {
    while (v >= 0x80) {
      out_->PushByte(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    out_->PushByte(static_cast<uint8_t>(v));
  }

  static uint64_t ZigZag(int64_t v) {
    return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
  }

  void PutSignedVarint64(int64_t v) { PutVarint64(ZigZag(v)); }

  void PutDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, 8);
    PutFixed64(bits);
  }

  /// Length-prefixed byte string.
  void PutString(Slice s) {
    PutVarint64(s.size());
    out_->Append(s);
  }

 private:
  ByteBuffer* out_;
};

/// In-place counterpart of Encoder::PutString: splices the
/// length-prefixed `s` into `dst` at byte offset `at`, moving the tail
/// of `dst` once.  `s` must not point into `dst`.
inline void InsertString(std::string* dst, size_t at, Slice s) {
  char head[10];
  size_t n = 0;
  uint64_t v = s.size();
  for (; v >= 0x80; v >>= 7) head[n++] = static_cast<char>(v | 0x80);
  head[n++] = static_cast<char>(v);
  dst->insert(at, n + s.size(), '\0');
  std::copy_n(head, n, dst->data() + at);
  std::copy_n(s.data(), s.size(), dst->data() + at + n);
}

/// Consumes primitive values from a Slice; every Get* advances the view.
/// All getters return false (and leave the output untouched) on truncated
/// or malformed input, so callers can surface DataLoss instead of UB.
class Decoder {
 public:
  explicit Decoder(Slice in) : in_(in) {}

  size_t remaining() const { return in_.size(); }
  bool empty() const { return in_.empty(); }

  bool GetU8(uint8_t* v) {
    if (in_.size() < 1) return false;
    *v = static_cast<uint8_t>(in_[0]);
    in_.RemovePrefix(1);
    return true;
  }

  bool GetFixed32(uint32_t* v) {
    if (in_.size() < 4) return false;
    std::memcpy(v, in_.data(), 4);
    in_.RemovePrefix(4);
    return true;
  }

  bool GetFixed64(uint64_t* v) {
    if (in_.size() < 8) return false;
    std::memcpy(v, in_.data(), 8);
    in_.RemovePrefix(8);
    return true;
  }

  bool GetVarint64(uint64_t* v) {
    uint64_t result = 0;
    for (int shift = 0; shift <= 63; shift += 7) {
      if (in_.empty()) return false;
      uint8_t byte = static_cast<uint8_t>(in_[0]);
      in_.RemovePrefix(1);
      // The 10th byte lands at shift 63, where only its low bit fits in
      // the result.  Anything above it (a stray continuation bit or
      // value bits past 2^63) would be shifted out silently, making two
      // distinct byte strings decode to the same value — reject instead.
      if (shift == 63 && (byte & 0xfe) != 0) return false;
      result |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if (!(byte & 0x80)) {
        *v = result;
        return true;
      }
    }
    return false;  // varint longer than 10 bytes
  }

  static int64_t UnZigZag(uint64_t v) {
    return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
  }

  bool GetSignedVarint64(int64_t* v) {
    uint64_t raw;
    if (!GetVarint64(&raw)) return false;
    *v = UnZigZag(raw);
    return true;
  }

  bool GetDouble(double* v) {
    uint64_t bits;
    if (!GetFixed64(&bits)) return false;
    std::memcpy(v, &bits, 8);
    return true;
  }

  /// Length-prefixed byte string; returns a view into the input.
  bool GetString(Slice* s) {
    uint64_t len;
    if (!GetVarint64(&len) || in_.size() < len) return false;
    *s = Slice(in_.data(), len);
    in_.RemovePrefix(len);
    return true;
  }

  bool GetString(std::string* s) {
    Slice sl;
    if (!GetString(&sl)) return false;
    s->assign(sl.data(), sl.size());
    return true;
  }

  /// Unprefixed raw bytes: view of the next n bytes, consumed.  For
  /// formats that interleave varints with counted byte runs (block
  /// codecs).
  bool GetBytes(size_t n, Slice* s) {
    if (in_.size() < n) return false;
    *s = Slice(in_.data(), n);
    in_.RemovePrefix(n);
    return true;
  }

 private:
  Slice in_;
};

/// Walks a run of length-prefixed strings (Encoder::PutString output)
/// in place.  It stops at the end or at the first entry that does not
/// decode; the run is the entries before that point.
class StringCursor {
 public:
  explicit StringCursor(Slice run) : run_(run) { Next(); }

  bool valid() const { return valid_; }
  /// The current string, without its length prefix.
  Slice value() const { return value_; }
  /// Byte offset of the current entry (or of where the run ends).
  size_t begin() const { return begin_; }
  /// The current entry's bytes, length prefix included.
  Slice entry() const { return Slice(run_.data() + begin_, end_ - begin_); }

  void Next() {
    begin_ = end_;
    Decoder dec(Slice(run_.data() + begin_, run_.size() - begin_));
    valid_ = !dec.empty() && dec.GetString(&value_);
    if (valid_) end_ = run_.size() - dec.remaining();
  }

 private:
  Slice run_;
  Slice value_;
  size_t begin_ = 0;
  size_t end_ = 0;
  bool valid_ = false;
};

// -- Typed key helpers -------------------------------------------------
//
// MapReduce keys/values travel as byte strings.  Numeric keys are encoded
// big-endian with the sign bit flipped so that lexicographic byte order
// equals numeric order (this is what lets Sort use the framework's
// comparator directly, as Hadoop's Writable comparators do).

/// Order-preserving encoding of a signed 64-bit integer.
std::string EncodeOrderedI64(int64_t v);
/// Inverse of EncodeOrderedI64; returns false on malformed input.
bool DecodeOrderedI64(Slice s, int64_t* v);

/// Order-preserving encoding of a double (totally ordered, NaN last).
std::string EncodeOrderedDouble(double v);
bool DecodeOrderedDouble(Slice s, double* v);

/// Compact (not order-preserving) encodings for values.
std::string EncodeI64(int64_t v);
bool DecodeI64(Slice s, int64_t* v);

}  // namespace bmr
