#include "sim/rng.hpp"

#include <cmath>

#include "common/expect.hpp"

namespace iob::sim {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // All-zero state is the one forbidden state; splitmix64 cannot produce four
  // zeros from any seed, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53-bit mantissa -> [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  IOB_EXPECTS(lo < hi, "uniform(lo, hi) requires lo < hi");
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  IOB_EXPECTS(lo <= hi, "uniform_int(lo, hi) requires lo <= hi");
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  std::uint64_t v = next_u64();
  while (v >= limit) v = next_u64();
  return lo + static_cast<std::int64_t>(v % span);
}

double Rng::normal() {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return cached_normal_;
  }
  // Box–Muller; u1 in (0,1] to keep log finite.
  const double u1 = 1.0 - uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  have_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double sigma) {
  IOB_EXPECTS(sigma >= 0.0, "normal() sigma must be non-negative");
  return mean + sigma * normal();
}

double Rng::exponential(double mean) {
  IOB_EXPECTS(mean > 0.0, "exponential() mean must be positive");
  return -mean * std::log(1.0 - uniform());
}

bool Rng::bernoulli(double p) {
  IOB_EXPECTS(p >= 0.0 && p <= 1.0, "bernoulli() probability must be in [0, 1]");
  return uniform() < p;
}

Rng Rng::fork(std::uint64_t stream_id) const {
  // Derive a child seed by hashing parent state with the stream id.
  std::uint64_t h = s_[0] ^ rotl(s_[1], 13) ^ rotl(s_[2], 29) ^ rotl(s_[3], 47);
  h ^= 0x6a09e667f3bcc909ULL + stream_id;
  return Rng(h);
}

}  // namespace iob::sim
