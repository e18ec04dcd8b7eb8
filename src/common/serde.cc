#include "common/serde.h"

#include <cmath>

namespace bmr {

std::string EncodeOrderedI64(int64_t v) {
  // Flip the sign bit, then store big-endian: byte order == numeric order.
  uint64_t u = static_cast<uint64_t>(v) ^ (1ull << 63);
  std::string out(8, '\0');
  for (int i = 7; i >= 0; --i) {
    out[i] = static_cast<char>(u & 0xff);
    u >>= 8;
  }
  return out;
}

bool DecodeOrderedI64(Slice s, int64_t* v) {
  if (s.size() != 8) return false;
  uint64_t u = 0;
  for (int i = 0; i < 8; ++i) {
    u = (u << 8) | static_cast<uint8_t>(s[i]);
  }
  *v = static_cast<int64_t>(u ^ (1ull << 63));
  return true;
}

std::string EncodeOrderedDouble(double v) {
  // IEEE754 trick: positive doubles sort by bit pattern; negatives sort
  // reversed.  Flip all bits for negatives, only the sign bit otherwise.
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  if (bits & (1ull << 63)) {
    bits = ~bits;
  } else {
    bits |= (1ull << 63);
  }
  std::string out(8, '\0');
  for (int i = 7; i >= 0; --i) {
    out[i] = static_cast<char>(bits & 0xff);
    bits >>= 8;
  }
  return out;
}

bool DecodeOrderedDouble(Slice s, double* v) {
  if (s.size() != 8) return false;
  uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits = (bits << 8) | static_cast<uint8_t>(s[i]);
  }
  if (bits & (1ull << 63)) {
    bits &= ~(1ull << 63);
  } else {
    bits = ~bits;
  }
  std::memcpy(v, &bits, 8);
  return true;
}

std::string EncodeI64(int64_t v) {
  ByteBuffer buf(10);
  Encoder enc(&buf);
  enc.PutSignedVarint64(v);
  return buf.ToString();
}

bool DecodeI64(Slice s, int64_t* v) {
  Decoder dec(s);
  return dec.GetSignedVarint64(v) && dec.empty();
}

}  // namespace bmr
