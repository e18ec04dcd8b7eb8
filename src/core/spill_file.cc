#include "core/spill_file.h"

#include "common/block_container.h"
#include "common/codec.h"
#include "faults/fault_injector.h"

namespace bmr::core {

namespace {

/// Bytes Encoder::PutString takes for `s`.
uint64_t FramedSize(Slice s) {
  uint64_t n = 1;
  for (uint64_t v = s.size(); v >= 0x80; v >>= 7) ++n;
  return n + s.size();
}

}  // namespace

SpillFileWriter::SpillFileWriter(std::string path,
                                 faults::FaultInjector* injector)
    : path_(std::move(path)),
      injector_(injector),
      file_(std::fopen(path_.c_str(), "wb")) {}

Status SpillFileWriter::Append(Slice key, Slice value) {
  if (injector_ != nullptr) {
    BMR_RETURN_IF_ERROR(injector_->OnSpillWrite(path_));
  }
  // A container decodes to at most kMaxSegmentRawBytes: a record that
  // cannot fit in one fails here, not in the reader.
  const uint64_t framed = FramedSize(key) + FramedSize(value);
  if (framed > kMaxSegmentRawBytes) {
    return Status::ResourceExhausted("spill record of " +
                                     std::to_string(framed) +
                                     " bytes exceeds the container cap");
  }
  if (staged_.size() + framed > kDefaultShuffleBlockBytes) {
    BMR_RETURN_IF_ERROR(WriteContainer());
  }
  Encoder enc(&staged_);
  enc.PutString(key);
  enc.PutString(value);
  return Status::Ok();
}

Status SpillFileWriter::WriteContainer() {
  if (file_ == nullptr) return Status::Internal("cannot open " + path_);
  if (staged_.empty()) return Status::Ok();
  ByteBuffer container;
  EncodeShuffleSegment(staged_.AsSlice(), **FindCodec("none"),
                       kDefaultShuffleBlockBytes, &container);
  staged_.Clear();
  const uint32_t len = static_cast<uint32_t>(container.size());
  if (std::fwrite(&len, sizeof(len), 1, file_.get()) != 1 ||
      std::fwrite(container.data(), 1, len, file_.get()) != len) {
    return Status::Internal("short write to spill file: " + path_);
  }
  bytes_written_ += sizeof(len) + len;
  return Status::Ok();
}

Status SpillFileWriter::Close() {
  Status st = WriteContainer();
  if (file_ != nullptr && std::fclose(file_.release()) != 0 && st.ok()) {
    return Status::Internal("close failed: " + path_);
  }
  return st;
}

SpillFileReader::SpillFileReader(std::string path, uint64_t run_bytes,
                                 faults::FaultInjector* injector)
    : path_(std::move(path)),
      run_bytes_(run_bytes),
      injector_(injector),
      file_(std::fopen(path_.c_str(), "rb")) {}

Status SpillFileReader::ReadContainer() {
  // Lengths are checked against the run length we were given, never
  // the file's, so a corrupt one cannot make us read or allocate more.
  uint32_t len = 0;
  if (run_bytes_ - bytes_read_ < sizeof(len) ||
      std::fread(&len, sizeof(len), 1, file_.get()) != 1 ||
      len > run_bytes_ - bytes_read_ - sizeof(len)) {
    return Status::DataLoss("spill run cut short or corrupt: " + path_);
  }
  std::string wire(len, '\0');
  if (std::fread(wire.data(), 1, len, file_.get()) != len) {
    return Status::DataLoss("spill run cut short: " + path_);
  }
  bytes_read_ += sizeof(len) + len;
  if (injector_ != nullptr) injector_->MaybeCorruptSpill(&wire);
  BMR_RETURN_IF_ERROR(DecodeShuffleSegment(Slice(wire), &raw_));
  records_ = Decoder(Slice(*raw_));
  return Status::Ok();
}

Status SpillFileReader::Next(std::string* key, std::string* value,
                             bool* has_record) {
  if (injector_ != nullptr) {
    BMR_RETURN_IF_ERROR(injector_->OnSpillRead(path_));
  }
  if (file_ == nullptr) return Status::Internal("cannot open " + path_);
  while (records_.empty()) {
    if (bytes_read_ == run_bytes_) {
      // The run must end exactly here; a further byte or a failed read
      // is an error, not the end of the run.
      if (std::fgetc(file_.get()) != EOF || std::ferror(file_.get()) != 0) {
        return Status::DataLoss("spill run does not end where written: " + path_);
      }
      *has_record = false;
      return Status::Ok();
    }
    BMR_RETURN_IF_ERROR(ReadContainer());
  }
  if (!records_.GetString(key) || !records_.GetString(value)) {
    return Status::DataLoss("malformed record in spill run: " + path_);
  }
  *has_record = true;
  return Status::Ok();
}

}  // namespace bmr::core
