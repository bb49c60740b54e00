#include "common/interp.hpp"

#include <algorithm>
#include <cmath>

#include "common/expect.hpp"

namespace iob::common {

namespace {

AnchorTable validated(AnchorTable anchors) {
  IOB_EXPECTS(anchors.size() >= 2, "interpolator needs at least two anchor points");
  for (std::size_t i = 1; i < anchors.size(); ++i) {
    IOB_EXPECTS(anchors[i].first > anchors[i - 1].first, "anchor x values must strictly increase");
  }
  return anchors;
}

}  // namespace

LinearInterpolator::LinearInterpolator(AnchorTable anchors) : anchors_(validated(std::move(anchors))) {}

double LinearInterpolator::operator()(double x) const {
  // Find the segment [i, i+1] whose x-range covers `x`; clamp to terminal
  // segments so extrapolation continues the end slopes.
  const auto upper = std::upper_bound(anchors_.begin(), anchors_.end(), x,
                                      [](double v, const auto& p) { return v < p.first; });
  std::size_t hi = static_cast<std::size_t>(upper - anchors_.begin());
  hi = std::clamp<std::size_t>(hi, 1, anchors_.size() - 1);
  const auto& [x0, y0] = anchors_[hi - 1];
  const auto& [x1, y1] = anchors_[hi];
  const double t = (x - x0) / (x1 - x0);
  return y0 + t * (y1 - y0);
}

namespace {

AnchorTable to_log_domain(const AnchorTable& anchors) {
  AnchorTable out;
  out.reserve(anchors.size());
  for (const auto& [x, y] : anchors) {
    IOB_EXPECTS(x > 0.0 && y > 0.0, "log-log anchors must be positive");
    out.emplace_back(std::log10(x), std::log10(y));
  }
  return out;
}

}  // namespace

LogLogInterpolator::LogLogInterpolator(AnchorTable anchors)
    : log_interp_(to_log_domain(anchors)), anchors_(std::move(anchors)) {}

double LogLogInterpolator::operator()(double x) const {
  IOB_EXPECTS(x > 0.0, "log-log interpolation requires x > 0");
  return std::pow(10.0, log_interp_(std::log10(x)));
}

}  // namespace iob::common
