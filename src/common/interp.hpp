#pragma once
/// \file interp.hpp
/// Piecewise interpolation over tabulated (x, y) anchor points.
///
/// Used for survey-derived models, most importantly the sensing-power vs
/// data-rate survey behind the paper's Fig. 3 (`energy/sensing_power.hpp`).
/// Two flavours:
///   * `LinearInterpolator`  — plain piecewise-linear in (x, y).
///   * `LogLogInterpolator`  — piecewise-linear in (log10 x, log10 y), i.e.
///     piecewise power laws, the natural fit for power-vs-rate surveys that
///     span many decades.
/// Both clamp-extrapolate beyond the table ends using the terminal segment
/// slope, which keeps sweeps outside the surveyed range well-behaved.

#include <utility>
#include <vector>

namespace iob::common {

/// A strictly-increasing-x table of anchor points.
using AnchorTable = std::vector<std::pair<double, double>>;

class LinearInterpolator {
 public:
  /// \param anchors at least two points, strictly increasing in x.
  explicit LinearInterpolator(AnchorTable anchors);

  /// Interpolated (or terminal-slope extrapolated) value at `x`.
  [[nodiscard]] double operator()(double x) const;

  [[nodiscard]] const AnchorTable& anchors() const { return anchors_; }

 private:
  AnchorTable anchors_;
};

class LogLogInterpolator {
 public:
  /// \param anchors at least two points, strictly increasing in x;
  ///        all x and y must be > 0 (log-domain fit).
  explicit LogLogInterpolator(AnchorTable anchors);

  /// Interpolated value at `x > 0`; piecewise power-law between anchors.
  [[nodiscard]] double operator()(double x) const;

  [[nodiscard]] const AnchorTable& anchors() const { return anchors_; }

 private:
  LinearInterpolator log_interp_;
  AnchorTable anchors_;
};

}  // namespace iob::common
