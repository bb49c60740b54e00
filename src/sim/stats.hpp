#pragma once
/// \file stats.hpp
/// Streaming statistics used throughout the simulator: scalar accumulators
/// (Welford) and time-weighted averages (for power and queue lengths).

#include <cstddef>

namespace iob::sim {

/// Streaming mean/variance/min/max over observed samples (Welford's method,
/// numerically stable for long runs).
class Accumulator {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double variance() const;  ///< sample variance (n-1); 0 if n<2
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double sum() const { return mean() * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Time-weighted average of a piecewise-constant signal, e.g. instantaneous
/// power or queue occupancy. Feed (time, new_value) transitions; query the
/// average over the observed window.
class TimeWeighted {
 public:
  /// Record that the signal changed to `value` at time `t` (non-decreasing).
  void update(double t, double value);

  /// Close the window at time `t` and return the time-weighted mean.
  [[nodiscard]] double average_until(double t) const;

  /// Integral of the signal over [start, t] (e.g. joules if the signal is W).
  [[nodiscard]] double integral_until(double t) const;

  [[nodiscard]] double current() const { return value_; }
  [[nodiscard]] bool started() const { return started_; }

 private:
  bool started_ = false;
  double start_time_ = 0.0;
  double last_time_ = 0.0;
  double value_ = 0.0;
  double integral_ = 0.0;
};

}  // namespace iob::sim
