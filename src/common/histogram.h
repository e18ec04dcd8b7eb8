// Streaming summary statistics and a simple log-bucketed histogram.
// Used by the metrics layer and by the Fig. 7 box-plot harness
// (min / p25 / median / p75 / max of per-run % improvements).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace bmr {

/// Keeps every sample; exact quantiles.  Fine for the experiment scales
/// here (thousands of samples), where exactness matters more than memory.
class Distribution {
 public:
  void Add(double v) {
    samples_.push_back(v);
    sorted_ = false;
  }

  size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  double Sum() const {
    double s = 0;
    for (double v : samples_) s += v;
    return s;
  }

  double Mean() const { return empty() ? 0.0 : Sum() / count(); }

  double Min() const {
    return empty() ? 0.0 : *std::min_element(samples_.begin(), samples_.end());
  }
  double Max() const {
    return empty() ? 0.0 : *std::max_element(samples_.begin(), samples_.end());
  }

  /// Exact quantile by linear interpolation between order statistics.
  double Quantile(double q) {
    if (samples_.empty()) return 0.0;
    EnsureSorted();
    if (q <= 0) return samples_.front();
    if (q >= 1) return samples_.back();
    double pos = q * (samples_.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    double frac = pos - lo;
    if (lo + 1 >= samples_.size()) return samples_.back();
    return samples_[lo] * (1 - frac) + samples_[lo + 1] * frac;
  }

  double Median() { return Quantile(0.5); }

  const std::vector<double>& samples() const { return samples_; }

 private:
  void EnsureSorted() {
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_ = true;
    }
  }

  std::vector<double> samples_;
  bool sorted_ = false;
};

/// Power-of-two bucketed counter histogram for high-volume latencies.
class LogHistogram {
 public:
  LogHistogram() : buckets_(65, 0) {}

  void Add(uint64_t v) {
    int b = v == 0 ? 0 : 64 - __builtin_clzll(v);
    buckets_[b]++;
    count_++;
    sum_ += v;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ ? min_ : 0; }
  uint64_t max() const { return max_; }
  double mean() const { return count_ ? static_cast<double>(sum_) / count_ : 0; }

  /// Fold another histogram's samples into this one.
  void Merge(const LogHistogram& o) {
    for (size_t b = 0; b < buckets_.size(); ++b) buckets_[b] += o.buckets_[b];
    count_ += o.count_;
    sum_ += o.sum_;
    if (o.count_ > 0) {
      min_ = std::min(min_, o.min_);
      max_ = std::max(max_, o.max_);
    }
  }

  /// Per-bucket counts; bucket b covers (2^(b-1), 2^b - 1] with upper
  /// bound (1<<b)-1 (bucket 0 holds the zeros).  Exporters turn these
  /// into cumulative Prometheus `le` buckets.
  const std::vector<uint64_t>& buckets() const { return buckets_; }

  /// Upper bound of the bucket containing the q-quantile.
  uint64_t ApproxQuantile(double q) const {
    if (count_ == 0) return 0;
    uint64_t target = static_cast<uint64_t>(q * count_);
    uint64_t seen = 0;
    for (size_t b = 0; b < buckets_.size(); ++b) {
      seen += buckets_[b];
      if (seen > target) return b == 0 ? 0 : (1ull << b) - 1;
    }
    return max_;
  }

 private:
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = std::numeric_limits<uint64_t>::max();
  uint64_t max_ = 0;
};

}  // namespace bmr
