// Sorted on-disk runs of (key, partial) pairs for the spill-and-merge
// scheme: ( fixed32 container_len | container )*, each container
// (common/block_container.h, stored blocks) holding whole framed
// records ([varint key_len][key][varint val_len][val]) up to a block's
// worth of raw bytes.  The reader verifies each container's checksums
// before it hands out a record, and holds the run to the byte count
// its writer reported: a run that ends short of it (even at a container
// boundary) or runs past it is DataLoss.
#pragma once

#include <cstdio>
#include <memory>
#include <string>

#include "common/bytes.h"
#include "common/serde.h"
#include "common/status.h"

namespace bmr::faults {
class FaultInjector;
}

namespace bmr::core {

struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/// Creates the file at once; a failed open is reported by the first
/// Append or Close that must write.
class SpillFileWriter {
 public:
  explicit SpillFileWriter(std::string path,
                           faults::FaultInjector* injector = nullptr);

  /// ResourceExhausted for a record too large for one container.
  [[nodiscard]] Status Append(Slice key, Slice value);
  [[nodiscard]] Status Close();

  /// The run's length once Close has returned.
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  [[nodiscard]] Status WriteContainer();

  std::string path_;
  faults::FaultInjector* injector_;
  FilePtr file_;
  ByteBuffer staged_;  // framed records of the next container
  uint64_t bytes_written_ = 0;
};

/// Sequential reader, one verified container at a time; one record
/// look-ahead so it can act as a merge head.  Opens the file at once; a
/// failed open is reported by the first Next.
class SpillFileReader {
 public:
  /// `run_bytes` is the writer's bytes_written() for this run.
  SpillFileReader(std::string path, uint64_t run_bytes,
                  faults::FaultInjector* injector = nullptr);

  /// Read the next record.  Returns OK+true via *has_record, or
  /// OK+false at the end of the run, or an error on corruption.
  [[nodiscard]] Status Next(std::string* key, std::string* value, bool* has_record);

 private:
  [[nodiscard]] Status ReadContainer();

  std::string path_;
  uint64_t run_bytes_;
  faults::FaultInjector* injector_;
  FilePtr file_;
  uint64_t bytes_read_ = 0;
  std::shared_ptr<const std::string> raw_;  // the current container
  Decoder records_{Slice()};                // cursor into *raw_
};

}  // namespace bmr::core
