#include "core/spill_file.h"

#include "common/serde.h"
#include "faults/fault_injector.h"

namespace bmr::core {

namespace {
constexpr size_t kIoBufferBytes = 64 << 10;
}

SpillFileWriter::SpillFileWriter(std::string path,
                                 faults::FaultInjector* injector)
    : path_(std::move(path)), injector_(injector) {}

SpillFileWriter::~SpillFileWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

Status SpillFileWriter::Open() {
  file_ = std::fopen(path_.c_str(), "wb");
  if (file_ == nullptr) {
    return Status::Internal("cannot open spill file for write: " + path_);
  }
  return Status::Ok();
}

Status SpillFileWriter::Append(Slice key, Slice value) {
  if (injector_ != nullptr) {
    BMR_RETURN_IF_ERROR(injector_->OnSpillWrite(path_));
  }
  record_.Clear();
  Encoder enc(&record_);
  enc.PutString(key);
  enc.PutString(value);
  if (std::fwrite(record_.data(), 1, record_.size(), file_) !=
      record_.size()) {
    return Status::Internal("short write to spill file: " + path_);
  }
  bytes_written_ += record_.size();
  return Status::Ok();
}

Status SpillFileWriter::Close() {
  if (file_ == nullptr) return Status::Ok();
  int rc = std::fclose(file_);
  file_ = nullptr;
  if (rc != 0) return Status::Internal("close failed: " + path_);
  return Status::Ok();
}

SpillFileReader::SpillFileReader(std::string path,
                                 faults::FaultInjector* injector)
    : path_(std::move(path)), injector_(injector) {}

SpillFileReader::~SpillFileReader() {
  if (file_ != nullptr) std::fclose(file_);
}

Status SpillFileReader::Open() {
  file_ = std::fopen(path_.c_str(), "rb");
  if (file_ == nullptr) {
    return Status::Internal("cannot open spill file for read: " + path_);
  }
  return Status::Ok();
}

Status SpillFileReader::FillBuffer(size_t need) {
  // Compact consumed prefix, then top up to at least `need` available.
  // A short fread is end of file only if the stream reports no error.
  if (buffer_pos_ > 0) {
    buffer_.erase(0, buffer_pos_);
    buffer_pos_ = 0;
  }
  while (buffer_.size() < need && !eof_) {
    size_t old = buffer_.size();
    size_t chunk = std::max(need - old, kIoBufferBytes);
    buffer_.resize(old + chunk);
    size_t n = std::fread(buffer_.data() + old, 1, chunk, file_);
    buffer_.resize(old + n);
    if (n < chunk) {
      if (std::ferror(file_) != 0) {
        return Status::DataLoss("spill file read failed: " + path_);
      }
      eof_ = true;
    }
  }
  if (buffer_.size() < need) {
    return Status::DataLoss("truncated spill file: " + path_);
  }
  return Status::Ok();
}

Status SpillFileReader::ReadVarint(uint64_t* v) {
  uint64_t result = 0;
  for (int shift = 0; shift <= 63; shift += 7) {
    if (buffer_pos_ >= buffer_.size()) {
      BMR_RETURN_IF_ERROR(FillBuffer(1));
    }
    uint8_t byte = static_cast<uint8_t>(buffer_[buffer_pos_++]);
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if (!(byte & 0x80)) {
      *v = result;
      return Status::Ok();
    }
  }
  return Status::DataLoss("overlong varint in spill file");
}

Status SpillFileReader::ReadBytes(std::string* out, size_t n) {
  if (buffer_.size() - buffer_pos_ < n) {
    BMR_RETURN_IF_ERROR(FillBuffer(n));  // compacts: buffer_pos_ becomes 0
  }
  out->assign(buffer_.data() + buffer_pos_, n);
  buffer_pos_ += n;
  return Status::Ok();
}

Status SpillFileReader::Next(std::string* key, std::string* value,
                             bool* has_record) {
  if (injector_ != nullptr) {
    BMR_RETURN_IF_ERROR(injector_->OnSpillRead(path_));
  }
  // End of file is only legitimate exactly at a record boundary; a
  // failed read there is an error, not end of file.
  if (buffer_pos_ >= buffer_.size()) {
    Status st = FillBuffer(1);
    if (buffer_.empty() && eof_) {
      *has_record = false;
      return Status::Ok();
    }
    BMR_RETURN_IF_ERROR(st);
  }
  uint64_t klen, vlen;
  BMR_RETURN_IF_ERROR(ReadVarint(&klen));
  BMR_RETURN_IF_ERROR(ReadBytes(key, klen));
  BMR_RETURN_IF_ERROR(ReadVarint(&vlen));
  BMR_RETURN_IF_ERROR(ReadBytes(value, vlen));
  *has_record = true;
  return Status::Ok();
}

}  // namespace bmr::core
