#pragma once
/// \file stats.hpp
/// Streaming scalar statistics used throughout the simulator.

#include <cstddef>

namespace iob::sim {

/// Streaming mean/min/max over observed samples (running mean, numerically
/// stable for long runs).
class Accumulator {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double sum() const { return mean() * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace iob::sim
