#pragma once
/// \file workloads.hpp
/// The benchmark's workloads and the input generator they share.

#include <cstdint>
#include <string>

#include "report.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;  ///< measuring window of the untraced run
  bool trace = false;     ///< true: per-layer traced run; false: end-to-end run
  std::string out_dir;    ///< spill shards, trace files and result records
  unsigned threads = 1;   ///< sweep and hub-engine threads
};

/// SplitMix64: every generated input (node phases, model and precision
/// assignment, fleet seed axis, nn input tensors) derives from the
/// benchmark seed through this generator, never from the program's RNG.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

void run_fleet_sweep(const Options& opt, Outcome& out);
void run_hub_saturation(const Options& opt, Outcome& out);
void run_hub_interactive(const Options& opt, Outcome& out);

}  // namespace perfbench
