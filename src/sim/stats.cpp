#include "sim/stats.hpp"

#include <algorithm>

namespace iob::sim {

void Accumulator::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  mean_ += (x - mean_) / static_cast<double>(n_);
}

double Accumulator::mean() const { return n_ ? mean_ : 0.0; }

double Accumulator::min() const { return n_ ? min_ : 0.0; }
double Accumulator::max() const { return n_ ? max_ : 0.0; }

}  // namespace iob::sim
