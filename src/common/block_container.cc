#include "common/block_container.h"

#include <cstring>

#include "common/arena.h"
#include "common/hash.h"
#include "common/serde.h"

namespace bmr {

namespace {

constexpr uint8_t kSegmentMagic = 0xB5;
constexpr uint8_t kSegmentVersion = 1;
constexpr uint8_t kBlockStored = 0;

}  // namespace

void EncodeShuffleSegment(Slice raw, const Codec& codec, size_t block_bytes,
                          ByteBuffer* out, SegmentEncodeStats* stats) {
  if (block_bytes == 0) block_bytes = kDefaultShuffleBlockBytes;
  const size_t start = out->size();
  const size_t raw_total = raw.size();
  Encoder enc(out);
  enc.PutU8(kSegmentMagic);
  enc.PutU8(kSegmentVersion);
  enc.PutU8(codec.id());
  enc.PutVarint64(raw.size());
  ByteBuffer scratch;
  while (!raw.empty()) {
    const size_t take = raw.size() < block_bytes ? raw.size() : block_bytes;
    const Slice block(raw.data(), take);
    raw.RemovePrefix(take);
    scratch.Clear();
    const bool compressed = codec.Compress(block, &scratch);
    const Slice enc_bytes = compressed ? scratch.AsSlice() : block;
    enc.PutVarint64(take);
    enc.PutU8(compressed ? codec.id() : kBlockStored);
    enc.PutVarint64(enc_bytes.size());
    enc.PutFixed64(Fnv1a64(enc_bytes));
    out->Append(enc_bytes);
  }
  if (stats != nullptr) {
    stats->raw_bytes = raw_total;
    stats->wire_bytes = out->size() - start;
  }
}

Status DecodeShuffleSegment(Slice wire,
                            std::shared_ptr<const std::string>* raw) {
  Decoder dec(wire);
  uint8_t magic = 0, version = 0, codec_id = 0;
  uint64_t raw_total = 0;
  if (!dec.GetU8(&magic) || !dec.GetU8(&version) || !dec.GetU8(&codec_id) ||
      !dec.GetVarint64(&raw_total)) {
    return Status::DataLoss("segment: truncated header");
  }
  if (magic != kSegmentMagic) {
    return Status::DataLoss("segment: bad magic");
  }
  if (version != kSegmentVersion) {
    return Status::DataLoss("segment: unknown version");
  }
  if (raw_total > kMaxSegmentRawBytes) {
    return Status::DataLoss("segment: raw size over cap");
  }
  std::shared_ptr<std::string> buf =
      BufferPool::Global()->Acquire(static_cast<size_t>(raw_total));
  char* out = buf->data();
  uint64_t pos = 0;
  while (pos < raw_total) {
    uint64_t raw_len = 0, enc_len = 0, checksum = 0;
    uint8_t flags = 0;
    if (!dec.GetVarint64(&raw_len) || !dec.GetU8(&flags) ||
        !dec.GetVarint64(&enc_len) || !dec.GetFixed64(&checksum)) {
      return Status::DataLoss("segment: truncated block header");
    }
    if (raw_len == 0 || raw_len > raw_total - pos) {
      return Status::DataLoss("segment: block length out of range");
    }
    // A stored block is exactly its raw bytes; a compressed block must
    // be strictly smaller or the encoder would have stored it.
    if (flags == kBlockStored ? enc_len != raw_len : enc_len >= raw_len) {
      return Status::DataLoss("segment: block encoded length out of range");
    }
    Slice enc_bytes;
    if (!dec.GetBytes(enc_len, &enc_bytes)) {
      return Status::DataLoss("segment: truncated block payload");
    }
    if (Fnv1a64(enc_bytes) != checksum) {
      return Status::DataLoss("segment: block checksum mismatch");
    }
    if (flags == kBlockStored) {
      std::memcpy(out + pos, enc_bytes.data(), enc_bytes.size());
    } else {
      const Codec* codec = CodecById(flags);
      if (codec == nullptr) {
        return Status::DataLoss("segment: unknown block codec");
      }
      BMR_RETURN_IF_ERROR(codec->Decompress(enc_bytes, out + pos,
                                            static_cast<size_t>(raw_len)));
    }
    pos += raw_len;
  }
  if (!dec.empty()) {
    return Status::DataLoss("segment: trailing bytes after last block");
  }
  *raw = std::move(buf);
  return Status::Ok();
}

}  // namespace bmr
