// RAII temp directory for spill files and KV store logs.
#pragma once

#include <filesystem>
#include <string>

namespace bmr::core {

/// Creates a unique directory on construction (under `base`, or the
/// system temp dir when base is empty) and removes it recursively on
/// destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& base = "");
  ~ScratchDir();

  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }
  std::string FilePath(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

}  // namespace bmr::core
