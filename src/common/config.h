// Typed string-keyed configuration, Hadoop-Configuration style.  Job
// specs carry one of these so that apps can expose tunables (k for kNN,
// window size for the GA, spill thresholds, ...) without new plumbing.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/status.h"

namespace bmr {

class Config {
 public:
  Config() = default;

  void Set(const std::string& key, std::string value) {
    values_[key] = std::move(value);
  }
  void SetInt(const std::string& key, int64_t value) {
    values_[key] = std::to_string(value);
  }
  void SetDouble(const std::string& key, double value) {
    values_[key] = std::to_string(value);
  }
  void SetBool(const std::string& key, bool value) {
    values_[key] = value ? "true" : "false";
  }

  std::string GetString(const std::string& key,
                        const std::string& fallback = "") const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  int64_t GetInt(const std::string& key, int64_t fallback = 0) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    try {
      return std::stoll(it->second);
    } catch (...) {
      return fallback;
    }
  }

  double GetDouble(const std::string& key, double fallback = 0.0) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    try {
      return std::stod(it->second);
    } catch (...) {
      return fallback;
    }
  }

  bool GetBool(const std::string& key, bool fallback = false) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    return it->second == "true" || it->second == "1";
  }

  const std::map<std::string, std::string>& values() const { return values_; }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace bmr
