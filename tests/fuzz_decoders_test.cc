// Deterministic seed-driven mutation fuzzing of the three decoders
// that parse untrusted bytes: net/framing.cc DecodeFrame (frames cut
// off a TCP connection), common/serde.h Decoder::GetVarint64 (the
// primitive every other getter builds on), and mr DecodeSegment
// (shuffle segments fetched from remote peers).  The Last.fm and kNN
// partial folds, which walk partial bytes read back from spill runs,
// get every truncation and single-bit flip of valid partials instead,
// and the spill runs themselves are read back through SpillFileReader
// after truncations and bit flips of a written run.
//
// No libFuzzer: a Pcg32 seeded per sweep drives the mutation schedule,
// so every run — local, CI, asan, ubsan — explores the exact same
// inputs and a failure reproduces from its (seed, iteration) pair
// alone.  The sweeps run each checked-in corpus entry unmutated first,
// then BMR_FUZZ_ITERS mutations per decoder (default 10000; the
// acceptance bar for check.sh's sanitizer legs).
//
// Each driver checks semantic invariants beyond "did not crash":
// consumed bytes stay in bounds, accepted frames re-encode and
// re-decode to the same fields, accepted varints match a widened
// reference decode (no silently dropped high bits), and the two
// DecodeSegment overloads agree record-for-record with all slices
// inside the shared buffer.  The harness itself is under test too:
// same seed → bit-identical sweep fingerprint, and a deliberately
// broken varint decoder (the PR 4 overflow guard removed) must be
// caught — proof the oracle has teeth, not just coverage.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/knn.h"
#include "apps/lastfm.h"
#include "common/block_container.h"
#include "common/bytes.h"
#include "common/codec.h"
#include "common/config.h"
#include "common/rng.h"
#include "common/serde.h"
#include "common/status.h"
#include "core/incremental.h"
#include "core/scratch_dir.h"
#include "core/spill_file.h"
#include "gtest/gtest.h"
#include "mr/emitter.h"
#include "mr/map_output.h"
#include "mr/record_batch.h"
#include "mr/types.h"
#include "net/framing.h"

namespace bmr {
namespace {

#ifndef BMR_FUZZ_CORPUS_DIR
#define BMR_FUZZ_CORPUS_DIR "tests/testdata/fuzz_corpus"
#endif

int FuzzIters() {
  const char* env = std::getenv("BMR_FUZZ_ITERS");
  if (env && *env) {
    int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 10000;
}

// ---- corpus --------------------------------------------------------

/// One input per non-comment line, hex-encoded (pairs of nibbles; an
/// empty line is the empty input — itself a corpus entry worth having).
std::vector<std::string> LoadCorpus(const std::string& name) {
  std::vector<std::string> corpus;
  std::ifstream in(std::string(BMR_FUZZ_CORPUS_DIR) + "/" + name + ".hex");
  if (!in.is_open()) return corpus;
  std::string line;
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] == '#') continue;
    std::string bytes;
    bool ok = true;
    for (size_t i = 0; i + 1 < line.size(); i += 2) {
      int hi = nibble(line[i]), lo = nibble(line[i + 1]);
      if (hi < 0 || lo < 0) {
        ok = false;
        break;
      }
      bytes.push_back(static_cast<char>((hi << 4) | lo));
    }
    if (ok) corpus.push_back(std::move(bytes));
  }
  return corpus;
}

// ---- mutation engine ----------------------------------------------

/// One deterministic mutation of `base`: flips, byte stomps, truncate,
/// insert, duplicate-splice — the classic dumb-mutator set.  All
/// randomness flows from `rng`, so a sweep's input sequence is a pure
/// function of its seed.
std::string Mutate(const std::string& base, Pcg32* rng) {
  std::string m = base;
  int ops = 1 + static_cast<int>(rng->NextBounded(4));
  for (int op = 0; op < ops; ++op) {
    switch (rng->NextBounded(6)) {
      case 0:  // bit flip
        if (!m.empty()) {
          size_t at = rng->NextBounded(static_cast<uint32_t>(m.size()));
          m[at] = static_cast<char>(m[at] ^ (1u << rng->NextBounded(8)));
        }
        break;
      case 1:  // byte stomp
        if (!m.empty()) {
          size_t at = rng->NextBounded(static_cast<uint32_t>(m.size()));
          m[at] = static_cast<char>(rng->NextBounded(256));
        }
        break;
      case 2:  // truncate tail
        if (!m.empty())
          m.resize(rng->NextBounded(static_cast<uint32_t>(m.size())));
        break;
      case 3: {  // insert random bytes
        size_t at = rng->NextBounded(static_cast<uint32_t>(m.size() + 1));
        size_t n = 1 + rng->NextBounded(8);
        std::string ins;
        for (size_t i = 0; i < n; ++i)
          ins.push_back(static_cast<char>(rng->NextBounded(256)));
        m.insert(at, ins);
        break;
      }
      case 4:  // duplicate a chunk (length-field confusion food)
        if (!m.empty()) {
          size_t at = rng->NextBounded(static_cast<uint32_t>(m.size()));
          size_t n = 1 + rng->NextBounded(
                             static_cast<uint32_t>(m.size() - at));
          m.insert(at, m.substr(at, n));
        }
        break;
      case 5:  // stomp a 32-bit length-ish field with an extreme value
        if (m.size() >= 4) {
          size_t at =
              rng->NextBounded(static_cast<uint32_t>(m.size() - 3));
          uint32_t extremes[] = {0u, 0x7fffffffu, 0xffffffffu,
                                 (64u << 20) + 1};
          uint32_t v = extremes[rng->NextBounded(4)];
          for (int i = 0; i < 4; ++i)
            m[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
        }
        break;
    }
  }
  return m;
}

/// A decoder driver consumes one input and returns true when every
/// invariant held; `outcome` feeds the sweep fingerprint so behavioral
/// (not just crash) divergence breaks reproducibility comparisons.
using Driver = std::function<bool(const std::string& input, uint8_t* outcome)>;

struct SweepResult {
  int iterations = 0;
  int violations = 0;
  uint64_t fingerprint = 0;  // FNV-1a over (input, outcome) pairs
};

SweepResult RunSweep(const std::vector<std::string>& corpus, uint64_t seed,
                     int iterations, const Driver& driver) {
  SweepResult r;
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const char* p, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(p[i]);
      h *= 1099511628211ull;
    }
  };
  Pcg32 rng(seed);
  auto run_one = [&](const std::string& input) {
    uint8_t outcome = 0;
    if (!driver(input, &outcome)) ++r.violations;
    mix(input.data(), input.size());
    mix(reinterpret_cast<const char*>(&outcome), 1);
    ++r.iterations;
  };
  for (const std::string& entry : corpus) run_one(entry);
  for (int i = 0; i < iterations; ++i) {
    const std::string& base =
        corpus[rng.NextBounded(static_cast<uint32_t>(corpus.size()))];
    run_one(Mutate(base, &rng));
  }
  r.fingerprint = h;
  return r;
}

// ---- driver: net/framing.cc DecodeFrame ----------------------------

bool FramingDriver(const std::string& input, uint8_t* outcome) {
  net::Frame frame;
  size_t consumed = 0;
  Status error;
  net::DecodeResult result =
      net::DecodeFrame(Slice(input), &frame, &consumed, &error);
  *outcome = static_cast<uint8_t>(result);
  switch (result) {
    case net::DecodeResult::kNeedMore:
      return true;
    case net::DecodeResult::kError:
      // The error must carry a message: the event loop logs it before
      // dropping the connection.
      return !error.ok();
    case net::DecodeResult::kFrame: {
      if (consumed == 0 || consumed > input.size()) return false;
      // Round-trip oracle: the decoded fields re-encode into a frame
      // that decodes to the same fields (checksum recomputed).
      ByteBuffer re;
      net::EncodeFrame(frame, &re);
      net::Frame again;
      size_t consumed2 = 0;
      Status error2;
      if (net::DecodeFrame(re.AsSlice(), &again, &consumed2, &error2) !=
          net::DecodeResult::kFrame)
        return false;
      return again.type == frame.type && again.request_id == frame.request_id &&
             again.src == frame.src && again.dst == frame.dst &&
             again.method == frame.method &&
             again.status_code == frame.status_code &&
             again.status_message == frame.status_message &&
             again.payload == frame.payload &&
             again.trace.trace_id == frame.trace.trace_id &&
             again.trace.parent_span == frame.trace.parent_span &&
             again.trace.flags == frame.trace.flags;
    }
  }
  return false;
}

// ---- driver: Decoder::GetVarint64 ----------------------------------

/// Reference decode with widened arithmetic: returns true and the
/// exact value only when the encoding terminates within 10 bytes AND
/// no value bit above 2^63's range is present.  Any decoder that
/// accepts an input the reference rejects is aliasing two distinct
/// byte strings onto one value — the bug class the PR 4 guard closed.
bool ReferenceVarint(const std::string& in, uint64_t* value,
                     size_t* consumed) {
  unsigned __int128 result = 0;
  for (size_t i = 0; i < in.size() && i < 10; ++i) {
    uint8_t byte = static_cast<uint8_t>(in[i]);
    result |= static_cast<unsigned __int128>(byte & 0x7f) << (7 * i);
    if (!(byte & 0x80)) {
      if (result > UINT64_MAX) return false;
      *value = static_cast<uint64_t>(result);
      *consumed = i + 1;
      return true;
    }
  }
  return false;  // truncated or longer than 10 bytes
}

/// The production decoder under a pluggable signature so the canary
/// test can swap in a broken build of the same shape.
using VarintFn = std::function<bool(Decoder*, uint64_t*)>;

Driver MakeVarintDriver(const VarintFn& get) {
  return [get](const std::string& input, uint8_t* outcome) {
    Decoder dec{Slice(input)};
    uint64_t v = 0;
    bool ok = get(&dec, &v);
    size_t eaten = input.size() - dec.remaining();
    *outcome = ok ? 1 : 0;
    if (eaten > input.size() || eaten > 10) return false;
    uint64_t ref_v = 0;
    size_t ref_eaten = 0;
    bool ref_ok = ReferenceVarint(input, &ref_v, &ref_eaten);
    if (ok != ref_ok) return false;
    if (ok && (v != ref_v || eaten != ref_eaten)) return false;
    if (ok) {
      // Round trip: the value re-encodes and re-decodes to itself.
      ByteBuffer buf;
      Encoder enc(&buf);
      enc.PutVarint64(v);
      Decoder dec2(buf.AsSlice());
      uint64_t v2 = 0;
      if (!dec2.GetVarint64(&v2) || v2 != v || !dec2.empty()) return false;
    }
    return true;
  };
}

/// GetVarint64 as it was before PR 4: the final-byte guard missing, so
/// bits shifted past 2^63 vanish silently.  Exists only to prove the
/// harness catches this decoder — see HarnessCatchesBrokenDecoder.
bool BrokenGetVarint64(Decoder* dec, uint64_t* v) {
  uint64_t result = 0;
  for (int shift = 0; shift <= 63; shift += 7) {
    uint8_t byte;
    if (!dec->GetU8(&byte)) return false;
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if (!(byte & 0x80)) {
      *v = result;
      return true;
    }
  }
  return false;
}

// ---- driver: mr DecodeSegment (both overloads) ---------------------

bool SegmentDriver(const std::string& input, uint8_t* outcome) {
  std::vector<mr::Record> records;
  Status vec_status = mr::DecodeSegment(Slice(input), &records);
  auto shared = std::make_shared<const std::string>(input);
  mr::RecordBatch batch;
  Status batch_status = mr::DecodeSegment(shared, &batch);
  *outcome = vec_status.ok() ? 1 : 0;
  // The copying and the zero-copy overload must agree on accept/reject
  // and, when accepting, on the records themselves.
  if (vec_status.ok() != batch_status.ok()) return false;
  if (!vec_status.ok()) return true;
  if (records.size() != batch.size()) return false;
  const char* lo = shared->data();
  const char* hi = shared->data() + shared->size();
  for (size_t i = 0; i < records.size(); ++i) {
    const mr::RecordBatch::Entry& e = batch[i];
    // Zero-copy entries must view into the shared buffer, in bounds.
    if (!e.key.empty() &&
        (e.key.data() < lo || e.key.data() + e.key.size() > hi))
      return false;
    if (!e.value.empty() &&
        (e.value.data() < lo || e.value.data() + e.value.size() > hi))
      return false;
    if (records[i].key != std::string(e.key.data(), e.key.size()))
      return false;
    if (records[i].value != std::string(e.value.data(), e.value.size()))
      return false;
  }
  return true;
}

// ---- driver: mr DecodeShuffleSegment (block container) -------------

bool ShuffleSegmentDriver(const std::string& input, uint8_t* outcome) {
  std::shared_ptr<const std::string> raw;
  Status st = DecodeShuffleSegment(Slice(input), &raw);
  *outcome = st.ok() ? 1 : 0;
  if (!st.ok()) return !st.message().empty();  // rejects carry a reason
  if (raw == nullptr || raw->size() > kMaxSegmentRawBytes) return false;
  // Round-trip oracle: whatever the decoder accepted re-encodes (under
  // both codecs) into a container that decodes back byte-identically.
  for (const char* name : {"none", "lz4"}) {
    auto codec = FindCodec(name);
    if (!codec.ok()) return false;
    ByteBuffer re;
    EncodeShuffleSegment(Slice(*raw), **codec, /*block_bytes=*/1024, &re);
    std::shared_ptr<const std::string> again;
    if (!DecodeShuffleSegment(re.AsSlice(), &again).ok()) return false;
    if (*again != *raw) return false;
  }
  return true;
}

/// Pluggable decode signature so the corruption oracle can run the
/// production decoder and the deliberately broken canary below.
using SegmentDecodeFn =
    std::function<bool(const std::string& wire, std::string* raw)>;

bool GoodSegmentDecode(const std::string& wire, std::string* raw) {
  std::shared_ptr<const std::string> p;
  if (!DecodeShuffleSegment(Slice(wire), &p).ok()) return false;
  *raw = *p;
  return true;
}

/// The decoder with its teeth pulled: block checksums never verified
/// and a stream that ends mid-segment accepted as-is (silent
/// truncation).  Exists only to prove the corruption oracle catches
/// both bug classes — see HarnessCatchesChecksumSkippingDecoder.
bool BrokenSegmentDecode(const std::string& wire, std::string* raw) {
  Decoder dec{Slice(wire)};
  uint8_t magic = 0, version = 0, codec_id = 0;
  uint64_t raw_total = 0;
  if (!dec.GetU8(&magic) || !dec.GetU8(&version) || !dec.GetU8(&codec_id) ||
      !dec.GetVarint64(&raw_total))
    return false;
  if (magic != 0xB5 || version != 1 || raw_total > kMaxSegmentRawBytes)
    return false;
  std::string out(static_cast<size_t>(raw_total), '\0');
  uint64_t pos = 0;
  while (pos < raw_total) {
    uint64_t raw_len = 0, enc_len = 0, checksum = 0;
    uint8_t flags = 0;
    if (!dec.GetVarint64(&raw_len) || !dec.GetU8(&flags) ||
        !dec.GetVarint64(&enc_len) || !dec.GetFixed64(&checksum))
      break;  // BUG: missing blocks accepted (silent truncation)
    if (raw_len == 0 || raw_len > raw_total - pos) return false;
    Slice enc;
    if (!dec.GetBytes(enc_len, &enc)) break;  // BUG: ditto
    // BUG: `checksum` is read but never compared.
    if (flags == 0) {
      if (enc.size() != raw_len) return false;
      std::memcpy(&out[pos], enc.data(), enc.size());
    } else {
      const Codec* codec = CodecById(flags);
      if (codec == nullptr) return false;
      if (!codec->Decompress(enc, &out[pos], static_cast<size_t>(raw_len))
               .ok())
        return false;
    }
    pos += raw_len;
  }
  *raw = std::move(out);
  return true;
}

/// The corruption oracle: for a seed the production decoder accepts,
/// every single-bit flip and every proper prefix must either be
/// rejected by `fn` or decode to the seed's exact raw bytes (the
/// header codec-id byte is diagnostic, so flipping it legitimately
/// still decodes).  Returns the number of corruptions `fn` accepted
/// with *different* bytes — silent corruption slipping through.
int SegmentCorruptionViolations(const std::string& seed,
                                const SegmentDecodeFn& fn) {
  std::string want;
  if (!GoodSegmentDecode(seed, &want)) return 0;  // not a valid seed
  int violations = 0;
  std::string got;
  for (size_t at = 0; at < seed.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = seed;
      flipped[at] = static_cast<char>(flipped[at] ^ (1 << bit));
      if (fn(flipped, &got) && got != want) ++violations;
    }
  }
  for (size_t len = 0; len < seed.size(); ++len) {
    if (fn(seed.substr(0, len), &got) && got != want) ++violations;
  }
  return violations;
}

// ---- spill runs: core/spill_file.h over the block container --------
//
// A run written by SpillFileWriter, four containers long and holding
// one record larger than a block, is read back after every corruption
// in the sweep.  A reader must return exactly the written records or
// fail: the records it hands out before failing may only be a prefix.

using SpillRecords = std::vector<std::pair<std::string, std::string>>;

std::string ReadFile(const std::string& path) {
  std::string bytes(std::filesystem::file_size(path), '\0');
  std::ifstream(path, std::ios::binary).read(bytes.data(), bytes.size());
  return bytes;
}

/// Reads a whole run into `out`; the status is the first error, if any.
using RunReadFn = std::function<Status(
    const std::string& path, uint64_t run_bytes, SpillRecords* out)>;

Status ReadSpillRun(const std::string& path, uint64_t run_bytes,
                    SpillRecords* out) {
  core::SpillFileReader reader(path, run_bytes);
  std::string key, value;
  bool has = true;
  while (true) {
    BMR_RETURN_IF_ERROR(reader.Next(&key, &value, &has));
    if (!has) return Status::Ok();
    out->emplace_back(key, value);
  }
}

/// The run reader with its teeth pulled: containers decoded by
/// BrokenSegmentDecode (no checksums), and the run ends wherever the
/// file does.  Exists only to prove the spill sweep catches both bug
/// classes — see HarnessCatchesChecksumSkippingSpillReader.
Status BrokenReadSpillRun(const std::string& path, uint64_t run_bytes,
                          SpillRecords* out) {
  (void)run_bytes;  // BUG: a file cut at a container boundary reads clean
  const std::string file = ReadFile(path);
  Decoder dec{Slice(file)};
  uint32_t len = 0;
  Slice container;
  while (dec.GetFixed32(&len) && dec.GetBytes(len, &container)) {
    std::string raw;
    if (!BrokenSegmentDecode(container.ToString(), &raw)) {
      return Status::DataLoss("container");
    }
    Decoder records{Slice(raw)};
    std::string key, value;
    while (!records.empty()) {
      if (!records.GetString(&key) || !records.GetString(&value)) {
        return Status::DataLoss("record");
      }
      out->emplace_back(key, value);
    }
  }
  return Status::Ok();
}

struct SweepRun {
  std::string path;
  uint64_t bytes = 0;
  SpillRecords records;
  /// Byte offsets of each container's length prefix, and of every
  /// block header inside the containers.
  std::vector<size_t> containers;
  std::vector<size_t> blocks;
};

/// Writes the sweep's run into `dir`: a little over a block of small
/// records (containers 1 and 2), one record larger than a block (a
/// container of its own, two blocks), and a short tail (container 4).
SweepRun WriteSweepRun(const core::ScratchDir& dir) {
  SweepRun run;
  run.path = dir.FilePath("run");
  for (int i = 0; i < 760; ++i) {
    run.records.emplace_back("key" + std::to_string(100000 + i),
                             std::string(80 + i % 9, static_cast<char>(i)));
  }
  run.records.emplace_back("key2", std::string(70 << 10, 'B'));
  for (int i = 0; i < 20; ++i) {
    run.records.emplace_back("key3" + std::to_string(i), "tail");
  }
  core::SpillFileWriter writer(run.path);
  for (const auto& [key, value] : run.records) {
    EXPECT_TRUE(writer.Append(key, value).ok());
  }
  EXPECT_TRUE(writer.Close().ok());
  run.bytes = writer.bytes_written();

  const std::string file = ReadFile(run.path);
  EXPECT_EQ(file.size(), run.bytes);
  Decoder dec{Slice(file)};
  uint32_t len = 0;
  Slice container;
  while (!dec.empty()) {
    const size_t at = file.size() - dec.remaining();
    run.containers.push_back(at);
    if (!dec.GetFixed32(&len) || !dec.GetBytes(len, &container)) break;
    Decoder blocks{container};
    uint8_t byte = 0;
    uint64_t raw_total = 0, raw_len = 0, enc_len = 0, checksum = 0;
    Slice enc;
    bool ok = blocks.GetU8(&byte) && blocks.GetU8(&byte) &&
              blocks.GetU8(&byte) && blocks.GetVarint64(&raw_total);
    while (ok && !blocks.empty()) {
      run.blocks.push_back(at + 4 + container.size() - blocks.remaining());
      ok = blocks.GetVarint64(&raw_len) && blocks.GetU8(&byte) &&
           blocks.GetVarint64(&enc_len) && blocks.GetFixed64(&checksum) &&
           blocks.GetBytes(enc_len, &enc);
    }
    EXPECT_TRUE(ok) << "container at " << at;
  }
  return run;
}

/// Whether `got` is what a faithful reader may return for `want`: all
/// of it after a clean end, a prefix of it after a failure.
bool FaithfulRead(const Status& st, const SpillRecords& got,
                  const SpillRecords& want) {
  if (st.ok()) return got == want;
  return got.size() <= want.size() &&
         std::equal(got.begin(), got.end(), want.begin());
}

/// The spill-run oracle.  Every truncation and every single-bit flip
/// near the framing (container length prefixes, container and block
/// headers, checksums, the first and last bytes of every payload and
/// of the file), and at a stride through the payloads; reading every
/// flip of this 144 KiB run would hash ~80 GB.  Returns the number of
/// reads `fn` ended unfaithfully.
int SpillRunCorruptionViolations(const SweepRun& run, const RunReadFn& fn) {
  constexpr size_t kNear = 24;   // framing bytes sit within this of a mark
  constexpr size_t kStride = 61;
  std::vector<size_t> marks = run.containers;
  marks.insert(marks.end(), run.blocks.begin(), run.blocks.end());
  marks.push_back(run.bytes);
  auto near_framing = [&](size_t at) {
    for (size_t m : marks) {
      if (at + kNear >= m && at < m + kNear) return true;
    }
    return false;
  };
  int violations = 0;
  auto check = [&](const std::string& path) {
    SpillRecords got;
    Status st = fn(path, run.bytes, &got);
    if (!FaithfulRead(st, got, run.records)) ++violations;
  };

  const std::string flip_path = run.path + ".flip";
  std::filesystem::copy_file(run.path, flip_path,
                             std::filesystem::copy_options::overwrite_existing);
  std::FILE* f = std::fopen(flip_path.c_str(), "r+b");
  if (f == nullptr) return -1;
  auto put = [f](size_t at, int c) {
    std::fseek(f, static_cast<long>(at), SEEK_SET);
    std::fputc(c, f);
    std::fflush(f);
  };
  const std::string file = ReadFile(run.path);
  for (size_t at = 0; at < file.size(); ++at) {
    const bool near = near_framing(at);
    if (!near && at % kStride != 0) continue;
    const int original = static_cast<unsigned char>(file[at]);
    for (int bit = 0; bit < 8; ++bit) {
      if (!near && bit != static_cast<int>(at / kStride % 8)) continue;
      put(at, original ^ (1 << bit));
      check(flip_path);
      put(at, original);
    }
  }
  std::fclose(f);

  // Cut a copy ever shorter: each length is one resize of it.
  const std::string cut_path = run.path + ".cut";
  std::filesystem::copy_file(run.path, cut_path,
                             std::filesystem::copy_options::overwrite_existing);
  for (size_t len = file.size(); len-- > 0;) {
    if (!near_framing(len) && len % kStride != 0) continue;
    std::filesystem::resize_file(cut_path, len);
    check(cut_path);
  }
  return violations;
}

// ---- partial folds: apps/lastfm.cc, apps/knn.cc --------------------
//
// Last.fm's user set and kNN's top-k list are updated, merged and
// finished by walking their own bytes, and a spill run hands those
// bytes back unverified.  Every truncation and every single-bit flip
// of a valid partial goes through Update, MergePartials and Finish; the
// asan and ubsan legs turn any out-of-bounds read into a failure.

/// Every proper prefix and every single-bit flip of `valid`.
std::vector<std::string> Corruptions(const std::string& valid) {
  std::vector<std::string> out;
  for (size_t len = 0; len < valid.size(); ++len) {
    out.push_back(valid.substr(0, len));
  }
  for (size_t at = 0; at < valid.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      out.push_back(valid);
      out.back()[at] = static_cast<char>(valid[at] ^ (1 << bit));
    }
  }
  return out;
}

/// Feeds a corrupted partial through every entry point.  Beyond not
/// crashing, the walks copy whole entries and stop at the first one
/// that does not decode, so merging `bad` with nothing yields a byte
/// prefix of it, and no output outgrows its inputs.
bool CorruptPartialSurvives(core::IncrementalReducer* reducer,
                            const std::string& bad, const std::string& good,
                            Slice value) {
  std::string updated = bad;
  reducer->Update("key", value, &updated, nullptr);
  bool ok = updated.size() <= bad.size() + value.size() + 10;
  std::string alone = reducer->MergePartials("key", bad, "");
  ok = ok && bad.compare(0, alone.size(), alone) == 0;
  for (const std::string& merged : {reducer->MergePartials("key", good, bad),
                                    reducer->MergePartials("key", bad, good),
                                    reducer->MergePartials("key", bad, bad)}) {
    ok = ok && merged.size() <= good.size() + 2 * bad.size();
  }
  std::vector<mr::Record> out;
  mr::VectorEmitter<std::vector<mr::Record>> emitter(&out);
  reducer->Finish("key", bad, &emitter);
  reducer->Finish("key", updated, &emitter);
  return ok;
}

/// The valid partial `values` fold to, and the number of its corruptions
/// that broke an invariant.
int PartialFoldViolations(core::IncrementalReducer* reducer,
                          const std::vector<std::string>& values,
                          Slice probe) {
  std::string good = reducer->InitPartial("key");
  for (const std::string& v : values) {
    reducer->Update("key", v, &good, nullptr);
  }
  int violations = 0;
  for (const std::string& bad : Corruptions(good)) {
    if (!CorruptPartialSurvives(reducer, bad, good, probe)) ++violations;
  }
  return violations;
}

// ---- the sweeps ----------------------------------------------------

class FuzzDecodersTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kSeed = 0xb34db34dull;
};

TEST_F(FuzzDecodersTest, FramingSweep) {
  std::vector<std::string> corpus = LoadCorpus("framing");
  ASSERT_FALSE(corpus.empty()) << "checked-in corpus missing: "
                               << BMR_FUZZ_CORPUS_DIR << "/framing.hex";
  SweepResult r = RunSweep(corpus, kSeed, FuzzIters(), FramingDriver);
  EXPECT_GE(r.iterations, FuzzIters());
  EXPECT_EQ(r.violations, 0);
}

TEST_F(FuzzDecodersTest, VarintSweep) {
  std::vector<std::string> corpus = LoadCorpus("varint");
  ASSERT_FALSE(corpus.empty()) << "checked-in corpus missing: "
                               << BMR_FUZZ_CORPUS_DIR << "/varint.hex";
  Driver driver = MakeVarintDriver(
      [](Decoder* dec, uint64_t* v) { return dec->GetVarint64(v); });
  SweepResult r = RunSweep(corpus, kSeed, FuzzIters(), driver);
  EXPECT_GE(r.iterations, FuzzIters());
  EXPECT_EQ(r.violations, 0);
}

TEST_F(FuzzDecodersTest, SegmentSweep) {
  std::vector<std::string> corpus = LoadCorpus("segment");
  ASSERT_FALSE(corpus.empty()) << "checked-in corpus missing: "
                               << BMR_FUZZ_CORPUS_DIR << "/segment.hex";
  SweepResult r = RunSweep(corpus, kSeed, FuzzIters(), SegmentDriver);
  EXPECT_GE(r.iterations, FuzzIters());
  EXPECT_EQ(r.violations, 0);
}

TEST_F(FuzzDecodersTest, ShuffleSegmentSweepNoneCodec) {
  std::vector<std::string> corpus = LoadCorpus("segment_none");
  ASSERT_FALSE(corpus.empty()) << "checked-in corpus missing: "
                               << BMR_FUZZ_CORPUS_DIR << "/segment_none.hex";
  SweepResult r = RunSweep(corpus, kSeed, FuzzIters(), ShuffleSegmentDriver);
  EXPECT_GE(r.iterations, FuzzIters());
  EXPECT_EQ(r.violations, 0);
}

TEST_F(FuzzDecodersTest, ShuffleSegmentSweepLz4Codec) {
  std::vector<std::string> corpus = LoadCorpus("segment_lz4");
  ASSERT_FALSE(corpus.empty()) << "checked-in corpus missing: "
                               << BMR_FUZZ_CORPUS_DIR << "/segment_lz4.hex";
  SweepResult r = RunSweep(corpus, kSeed, FuzzIters(), ShuffleSegmentDriver);
  EXPECT_GE(r.iterations, FuzzIters());
  EXPECT_EQ(r.violations, 0);
}

TEST_F(FuzzDecodersTest, EveryByteFlipIsRejectedOrDecodesIdentically) {
  // The checksum-rejection oracle: no single-bit corruption of a valid
  // container may silently change the decoded bytes.  (The diagnostic
  // codec-id header byte may flip and still decode — identically.)
  int valid_seeds = 0;
  for (const char* name : {"segment_none", "segment_lz4"}) {
    for (const std::string& seed : LoadCorpus(name)) {
      std::string want;
      if (!GoodSegmentDecode(seed, &want)) continue;
      ++valid_seeds;
      EXPECT_EQ(SegmentCorruptionViolations(seed, GoodSegmentDecode), 0)
          << "corrupted " << name << " seed accepted with different bytes";
    }
  }
  EXPECT_GE(valid_seeds, 8) << "corpus lost its valid seeds";
}

TEST_F(FuzzDecodersTest, HarnessCatchesChecksumSkippingDecoder) {
  // The corrupted-block canary: run the same oracle against a decoder
  // that skips checksum verification and tolerates a truncated block
  // stream.  If this passes clean, the green sweeps above prove
  // nothing.
  int violations = 0;
  for (const char* name : {"segment_none", "segment_lz4"}) {
    for (const std::string& seed : LoadCorpus(name)) {
      violations += SegmentCorruptionViolations(seed, BrokenSegmentDecode);
    }
  }
  EXPECT_GT(violations, 0)
      << "harness failed to flag silent corruption and truncation";
}

TEST_F(FuzzDecodersTest, SpillRunSweepReadsWrittenRecordsOrFails) {
  core::ScratchDir dir;
  SweepRun run = WriteSweepRun(dir);
  ASSERT_GE(run.containers.size(), 3u);
  ASSERT_GT(run.blocks.size(), run.containers.size())
      << "no container spans two blocks";
  SpillRecords clean;
  ASSERT_TRUE(ReadSpillRun(run.path, run.bytes, &clean).ok());
  ASSERT_EQ(clean, run.records);
  EXPECT_EQ(SpillRunCorruptionViolations(run, ReadSpillRun), 0);
}

TEST_F(FuzzDecodersTest, HarnessCatchesChecksumSkippingSpillReader) {
  // The spill-run canary: the same sweep against a reader that skips
  // checksum verification and ends the run wherever the file ends.
  core::ScratchDir dir;
  SweepRun run = WriteSweepRun(dir);
  EXPECT_GT(SpillRunCorruptionViolations(run, BrokenReadSpillRun), 0)
      << "harness failed to flag silent corruption of a spill run";
}

TEST_F(FuzzDecodersTest, SpillRunCutAtAContainerBoundaryIsDataLoss) {
  // A run cut exactly between containers is well-formed up to the cut;
  // only the length the writer reported tells it from a shorter run.
  core::ScratchDir dir;
  SweepRun run = WriteSweepRun(dir);
  ASSERT_GE(run.containers.size(), 3u);
  for (size_t cut : run.containers) {
    std::filesystem::resize_file(run.path, cut);
    SpillRecords got;
    Status st = ReadSpillRun(run.path, run.bytes, &got);
    EXPECT_EQ(st.code(), StatusCode::kDataLoss) << "cut at " << cut;
  }
}

TEST_F(FuzzDecodersTest, ShuffleSegmentCorpusSeedsAreWellFormed) {
  // Each codec's corpus needs accepting seeds (mutating only garbage
  // never reaches the deep block paths), and the lz4 corpus must carry
  // real compression: at least one seed whose wire form is smaller
  // than its decoded bytes.
  for (const char* name : {"segment_none", "segment_lz4"}) {
    int accepted = 0;
    bool shrank = false;
    for (const std::string& seed : LoadCorpus(name)) {
      std::string raw;
      if (!GoodSegmentDecode(seed, &raw)) continue;
      ++accepted;
      if (seed.size() < raw.size()) shrank = true;
    }
    EXPECT_GE(accepted, 3) << name;
    if (std::string(name) == "segment_lz4") {
      EXPECT_TRUE(shrank) << "lz4 corpus has no actually-compressed seed";
    }
  }
}

// ---- the harness under test ----------------------------------------

TEST_F(FuzzDecodersTest, SameSeedIsBitReproducible) {
  std::vector<std::string> corpus = LoadCorpus("framing");
  ASSERT_FALSE(corpus.empty());
  SweepResult a = RunSweep(corpus, 42, 500, FramingDriver);
  SweepResult b = RunSweep(corpus, 42, 500, FramingDriver);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.iterations, b.iterations);
  SweepResult c = RunSweep(corpus, 43, 500, FramingDriver);
  EXPECT_NE(a.fingerprint, c.fingerprint)
      << "different seeds explored identical input sequences";
}

TEST_F(FuzzDecodersTest, HarnessCatchesBrokenDecoder) {
  // The canary: remove the overflow guard and the sweep must report
  // violations — otherwise the three green sweeps above mean nothing.
  std::vector<std::string> corpus = LoadCorpus("varint");
  ASSERT_FALSE(corpus.empty());
  Driver broken = MakeVarintDriver(BrokenGetVarint64);
  SweepResult r = RunSweep(corpus, kSeed, 2000, broken);
  EXPECT_GT(r.violations, 0)
      << "harness failed to flag a decoder that silently drops high bits";
}

TEST_F(FuzzDecodersTest, CorruptLastFmPartialsAreWalkedSafely) {
  apps::AppOptions options;
  options.barrierless = true;
  auto reducer = apps::MakeLastFmJob(options).incremental();
  reducer->Setup(Config());
  // Users on both sides of the one-byte varint length limit.
  std::vector<std::string> users = {"4", "40", "41", std::string(127, 'u'),
                                    std::string(128, 'u'), "", "user9"};
  EXPECT_EQ(PartialFoldViolations(reducer.get(), users, "400"), 0);
}

TEST_F(FuzzDecodersTest, CorruptKnnPartialsAreWalkedSafely) {
  for (int64_t k : {1, 3, 10}) {
    Config config;
    config.SetInt("knn.k", k);
    apps::AppOptions options;
    options.barrierless = true;
    options.extra = config;
    auto reducer = apps::MakeKnnJob(options).incremental();
    reducer->Setup(config);
    std::vector<std::string> values;
    for (int64_t train : std::vector<int64_t>{7, -3, 3, 0, 1ll << 40, -9}) {
      int64_t distance = train < 0 ? -train : train;
      values.push_back(apps::EncodeNeighbor({distance, train}));
    }
    std::string probe = apps::EncodeNeighbor({3, 2});
    EXPECT_EQ(PartialFoldViolations(reducer.get(), values, probe), 0)
        << "k=" << k;
  }
}

TEST_F(FuzzDecodersTest, CorpusSeedsAreWellFormed) {
  // At least one seed per decoder must be a currently-valid encoding:
  // mutating only garbage never reaches the deep accept paths.
  bool frame_ok = false;
  for (const std::string& s : LoadCorpus("framing")) {
    net::Frame f;
    size_t consumed = 0;
    Status error;
    if (net::DecodeFrame(Slice(s), &f, &consumed, &error) ==
        net::DecodeResult::kFrame)
      frame_ok = true;
  }
  EXPECT_TRUE(frame_ok);
  bool varint_ok = false, varint_overlong = false;
  for (const std::string& s : LoadCorpus("varint")) {
    Decoder dec{Slice(s)};
    uint64_t v = 0;
    if (dec.GetVarint64(&v))
      varint_ok = true;
    else if (s.size() >= 10)
      varint_overlong = true;  // the adversarial overlong seeds
  }
  EXPECT_TRUE(varint_ok);
  EXPECT_TRUE(varint_overlong);
  bool segment_ok = false;
  for (const std::string& s : LoadCorpus("segment")) {
    std::vector<mr::Record> records;
    if (mr::DecodeSegment(Slice(s), &records).ok() && !records.empty())
      segment_ok = true;
  }
  EXPECT_TRUE(segment_ok);
}

}  // namespace
}  // namespace bmr
