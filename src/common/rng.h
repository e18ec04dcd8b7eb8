// Deterministic random sources for workload generation and the simulator.
// All experiments are seeded; two runs with the same seed produce
// byte-identical inputs and therefore byte-identical outputs.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace bmr {

/// SplitMix64: seeds other generators and provides cheap stateless draws.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ull;
    uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

/// PCG32 (pcg-xsh-rr-64/32): the workhorse generator.
class Pcg32 {
 public:
  explicit Pcg32(uint64_t seed, uint64_t stream = 0x853c49e6748fea9bull) {
    state_ = 0;
    inc_ = (stream << 1) | 1;
    NextU32();
    state_ += seed;
    NextU32();
  }

  uint32_t NextU32() {
    uint64_t old = state_;
    state_ = old * 6364136223846793005ull + inc_;
    uint32_t xorshifted = static_cast<uint32_t>(((old >> 18) ^ old) >> 27);
    uint32_t rot = static_cast<uint32_t>(old >> 59);
    return (xorshifted >> rot) | (xorshifted << ((32 - rot) & 31));
  }

  uint64_t NextU64() {
    return (static_cast<uint64_t>(NextU32()) << 32) | NextU32();
  }

  /// Unbiased draw in [0, bound) via Lemire rejection.
  uint32_t NextBounded(uint32_t bound) {
    if (bound == 0) return 0;
    uint64_t m = static_cast<uint64_t>(NextU32()) * bound;
    uint32_t l = static_cast<uint32_t>(m);
    if (l < bound) {
      uint32_t t = -bound % bound;
      while (l < t) {
        m = static_cast<uint64_t>(NextU32()) * bound;
        l = static_cast<uint32_t>(m);
      }
    }
    return static_cast<uint32_t>(m >> 32);
  }

  /// Uniform in [0, 1).
  double NextDouble() {
    return (NextU64() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Uniform in [lo, hi].
  int64_t NextInRange(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(
                    NextU64() % static_cast<uint64_t>(hi - lo + 1));
  }

  /// Standard normal via Box-Muller (one value per call; simple and
  /// deterministic, speed is not a concern for generation).
  double NextGaussian() {
    double u1 = NextDouble();
    double u2 = NextDouble();
    if (u1 < 1e-300) u1 = 1e-300;
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

 private:
  uint64_t state_;
  uint64_t inc_;
};

/// Zipf-distributed integers in [0, n).  Uses the classic inverse-CDF
/// over precomputed harmonic weights; construction is O(n) and sampling
/// is O(log n).  Word frequencies in natural-language corpora are
/// Zipfian, which is what makes WordCount's per-key skew realistic.
class ZipfGenerator {
 public:
  ZipfGenerator(uint64_t n, double exponent, uint64_t seed);

  uint64_t Next();

  uint64_t n() const { return n_; }

 private:
  uint64_t n_;
  Pcg32 rng_;
  std::vector<double> cdf_;  // cumulative, normalized to [0,1]
};

}  // namespace bmr
