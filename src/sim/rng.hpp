#pragma once
/// \file rng.hpp
/// Deterministic random number generation for reproducible simulations.
///
/// xoshiro256++ (Blackman & Vigna) — fast, high-quality, and, unlike
/// std::mt19937 + std::*_distribution, fully specified here so the same seed
/// yields the same trace on every platform/toolchain. All distribution
/// transforms are implemented locally for the same reason.

#include <array>
#include <cstdint>

namespace iob::sim {

class Rng {
 public:
  /// Seeded via SplitMix64 expansion of a single 64-bit seed.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi). Requires lo < hi.
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box–Muller (deterministic pairing).
  double normal();

  /// Normal with the given mean and standard deviation (sigma >= 0).
  double normal(double mean, double sigma);

  /// Exponential with the given mean (> 0); inter-arrival times of a
  /// Poisson process of rate 1/mean.
  double exponential(double mean);

  /// Bernoulli trial with probability p in [0, 1].
  bool bernoulli(double p);

  /// Fork a statistically independent stream (for per-node RNGs): hashes the
  /// parent state with the stream id so sibling streams do not correlate.
  [[nodiscard]] Rng fork(std::uint64_t stream_id) const;

 private:
  std::array<std::uint64_t, 4> s_{};
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace iob::sim
