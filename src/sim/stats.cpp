#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/expect.hpp"

namespace iob::sim {

void Accumulator::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double Accumulator::mean() const { return n_ ? mean_ : 0.0; }

double Accumulator::variance() const {
  return n_ >= 2 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

double Accumulator::min() const { return n_ ? min_ : 0.0; }
double Accumulator::max() const { return n_ ? max_ : 0.0; }

void TimeWeighted::update(double t, double value) {
  if (!started_) {
    started_ = true;
    start_time_ = last_time_ = t;
    value_ = value;
    return;
  }
  IOB_EXPECTS(t >= last_time_, "time-weighted updates must be non-decreasing in time");
  integral_ += value_ * (t - last_time_);
  last_time_ = t;
  value_ = value;
}

double TimeWeighted::integral_until(double t) const {
  if (!started_) return 0.0;
  IOB_EXPECTS(t >= last_time_, "query time precedes last update");
  return integral_ + value_ * (t - last_time_);
}

double TimeWeighted::average_until(double t) const {
  if (!started_ || t <= start_time_) return value_;
  return integral_until(t) / (t - start_time_);
}

}  // namespace iob::sim
