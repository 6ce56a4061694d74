// The benchmark's own seeded stream. Inputs are derived here rather than
// from the library's RNG so that a change to the library cannot change
// what a given --seed generates.
#pragma once

#include <cstdint>

namespace perfbench {

/// splitmix64 finalizer: decorrelates (seed, index) pairs.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

class SeedStream {
 public:
  explicit SeedStream(std::uint64_t seed) : seed_(seed) {}

  std::uint64_t next() { return mix_seed(seed_, counter_++); }

  /// Uniform in [lo, hi] (inclusive; hi - lo far below 2^32).
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    next() % static_cast<std::uint64_t>(hi - lo + 1));
  }

  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t seed_;
  std::uint64_t counter_ = 0;
};

}  // namespace perfbench
