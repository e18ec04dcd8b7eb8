// Sorted on-disk runs of (key, partial) pairs for the spill-and-merge
// scheme.  Format: repeated [varint key_len][key][varint val_len][val].
#pragma once

#include <cstdio>
#include <memory>
#include <string>

#include "common/bytes.h"
#include "common/status.h"

namespace bmr::faults {
class FaultInjector;
}

namespace bmr::core {

class SpillFileWriter {
 public:
  explicit SpillFileWriter(std::string path,
                           faults::FaultInjector* injector = nullptr);
  ~SpillFileWriter();

  SpillFileWriter(const SpillFileWriter&) = delete;
  SpillFileWriter& operator=(const SpillFileWriter&) = delete;

  [[nodiscard]] Status Open();
  [[nodiscard]] Status Append(Slice key, Slice value);
  [[nodiscard]] Status Close();

  uint64_t bytes_written() const { return bytes_written_; }

 private:
  std::string path_;
  faults::FaultInjector* injector_;
  std::FILE* file_ = nullptr;
  /// One record's encoding, reused across Appends.
  ByteBuffer record_;
  uint64_t bytes_written_ = 0;
};

/// Sequential reader with an internal buffer; one record look-ahead so
/// it can act as a merge head.
class SpillFileReader {
 public:
  explicit SpillFileReader(std::string path,
                           faults::FaultInjector* injector = nullptr);
  ~SpillFileReader();

  SpillFileReader(const SpillFileReader&) = delete;
  SpillFileReader& operator=(const SpillFileReader&) = delete;

  [[nodiscard]] Status Open();

  /// Read the next record.  Returns OK+true via *has_record, or
  /// OK+false at end of file, or an error on corruption.
  [[nodiscard]] Status Next(std::string* key, std::string* value, bool* has_record);

 private:
  [[nodiscard]] Status FillBuffer(size_t need);
  [[nodiscard]] Status ReadVarint(uint64_t* v);
  [[nodiscard]] Status ReadBytes(std::string* out, size_t n);

  std::string path_;
  faults::FaultInjector* injector_;
  std::FILE* file_ = nullptr;
  std::string buffer_;
  size_t buffer_pos_ = 0;
  bool eof_ = false;
};

}  // namespace bmr::core
