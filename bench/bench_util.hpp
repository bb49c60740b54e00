#pragma once
/// \file bench_util.hpp
/// Shared scaffolding for the bench binaries: every bench prints its
/// figure/table reproduction first, then runs its google-benchmark
/// microbenchmarks (kernel throughput numbers that back the model's
/// latency assumptions), and can emit a machine-readable summary via
/// `JsonReporter` so the repo's perf trajectory is tracked across PRs.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/fleet.hpp"
#include "nn/gemm.hpp"

namespace iob::bench {

/// Print the reproduction, then hand over to google-benchmark.
/// Call from main() after emitting the figure.
inline int run_microbenchmarks(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  std::printf("\n--- microbenchmarks (kernel costs behind the model) ---\n");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

/// Monotonic wall-clock seconds, for headline metrics outside
/// google-benchmark's harness.
inline double wall_time_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

/// Run `fn` for `budget_s`, split into equal sub-windows of >= 2 calls
/// each, and return the median window's calls per second: a burst of host
/// noise lands in one window and does not move the median. The one timing
/// loop behind the nn engine benches.
template <typename F>
inline double rate_per_s(double budget_s, F&& fn) {
  constexpr int kWindows = 5;
  fn();  // warm-up
  std::vector<double> rates;
  for (int w = 0; w < kWindows; ++w) {
    const double start = wall_time_s();
    std::uint64_t calls = 0;
    double elapsed = 0.0;
    do {
      fn();
      ++calls;
      elapsed = wall_time_s() - start;
    } while (elapsed < budget_s / kWindows || calls < 2);
    rates.push_back(static_cast<double>(calls) / elapsed);
  }
  return core::percentile(rates, 0.5);
}

/// One kernel's cost at an nn dispatch cap and at full auto-dispatch.
struct TierTiming {
  double us_per_item_auto;  ///< median over the rounds
  double speedup;           ///< median per-round capped time / auto time
};

/// Time `us_per_item(round_budget_s)` at dispatch cap `cap` and at full
/// auto in alternating rounds in one process, so host drift hits both tiers
/// alike; leaves the cap at auto.
template <typename F>
inline TierTiming time_tiers(int cap, double budget_s, F&& us_per_item) {
  constexpr int kRounds = 10;
  std::vector<double> autos, ratios;
  for (int r = 0; r < kRounds; ++r) {
    double us[2];  // [cap, auto]
    for (int i = 0; i < 2; ++i) {
      const int side = (r + i) % 2;  // alternate which side runs first
      nn::set_dispatch_cap(side == 0 ? cap : -1);
      us[side] = us_per_item(budget_s / kRounds);
    }
    autos.push_back(us[1]);
    ratios.push_back(us[0] / us[1]);
  }
  nn::set_dispatch_cap(-1);
  return {core::percentile(autos, 0.5), core::percentile(ratios, 0.5)};
}

/// Index of the largest element (top-1 class of a logit vector).
inline int argmax(const float* d, std::int64_t n) {
  int best = 0;
  for (std::int64_t i = 1; i < n; ++i) {
    if (d[i] > d[best]) best = static_cast<int>(i);
  }
  return best;
}

/// Collects headline metrics (events/s, sweep points/s, wall time, ...) and
/// writes them as `BENCH_<name>.json` next to the binary's working dir:
///
///   {"bench": "perf_sim_core", "metrics": {"events_per_s": 1.6e7, ...}}
///
/// Deliberately dependency-free: a flat string->double map is all the perf
/// trajectory needs, and every bench binary can afford it unconditionally.
class JsonReporter {
 public:
  explicit JsonReporter(std::string name) : name_(std::move(name)) {}

  void add(const std::string& key, double value) { metrics_.emplace_back(key, value); }

  /// Serialize without writing (test hook).
  [[nodiscard]] std::string to_json() const {
    std::string out = "{\"bench\": \"" + name_ + "\", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      if (i != 0) out += ", ";
      out += "\"" + metrics_[i].first + "\": " + format_number(metrics_[i].second);
    }
    out += "}}\n";
    return out;
  }

  /// Write BENCH_<name>.json into the current working directory.
  /// Returns false (and keeps quiet) if the file cannot be opened.
  bool write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::string body = to_json();
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    std::printf("[bench] wrote %s\n", path.c_str());
    return true;
  }

 private:
  static std::string format_number(double v) {
    if (std::isnan(v)) return "null";
    if (std::isinf(v)) return v > 0 ? "1e308" : "-1e308";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
  }

  std::string name_;
  std::vector<std::pair<std::string, double>> metrics_;
};

}  // namespace iob::bench
