#ifndef GENBASE_COMMON_RNG_H_
#define GENBASE_COMMON_RNG_H_

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace genbase {

/// \brief SplitMix64: used to derive stream seeds from (tag, index) pairs so
/// that every dataset/column/purpose gets an independent deterministic stream.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// \brief One hash-combine step: folds `v` into the accumulator `h` through
/// SplitMix64, so nearby values (quantile 0.90 vs 0.95) land far apart.
inline uint64_t HashMix(uint64_t h, uint64_t v) {
  return SplitMix64(h ^ (v + 0x9e3779b97f4a7c15ULL));
}

/// \brief HashMix over a double's bit pattern.
inline uint64_t HashMix(uint64_t h, double d) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(d), "double must be 64-bit");
  std::memcpy(&bits, &d, sizeof(bits));
  return HashMix(h, bits);
}

/// \brief Derives a seed from a string tag plus numeric salts (FNV-1a over
/// the tag, mixed through SplitMix64).
uint64_t SeedFromTag(std::string_view tag, uint64_t salt0 = 0,
                     uint64_t salt1 = 0);

/// \brief xoshiro256** PRNG. Small, fast, reproducible across platforms
/// (unlike std::mt19937_64 distributions, whose outputs are
/// implementation-defined for e.g. normal_distribution).
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    uint64_t x = seed;
    for (auto& s : state_) {
      x = SplitMix64(x);
      s = x;
    }
    has_gauss_ = false;
    gauss_ = 0.0;
  }

  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double Uniform() { return (Next() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(
                                                  hi - lo + 1));
  }

  /// Standard normal via Marsaglia polar method (deterministic given seed).
  double Gaussian() {
    if (has_gauss_) {
      has_gauss_ = false;
      return gauss_;
    }
    double u, v, s;
    do {
      u = 2.0 * Uniform() - 1.0;
      v = 2.0 * Uniform() - 1.0;
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double f = std::sqrt(-2.0 * std::log(s) / s);
    gauss_ = v * f;
    has_gauss_ = true;
    return u * f;
  }

  double Gaussian(double mean, double stddev) {
    return mean + stddev * Gaussian();
  }

  /// Bernoulli draw with probability p of true.
  bool Bernoulli(double p) { return Uniform() < p; }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
  bool has_gauss_;
  double gauss_;
};

}  // namespace genbase

#endif  // GENBASE_COMMON_RNG_H_
