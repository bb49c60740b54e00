#pragma once
/// \file stats.hpp
/// Small helpers the benchmark reports through: order statistics over
/// repeated timings, and the naming rules every emitted metric obeys.
/// Header-only so the self-test links nothing but this file.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace perfbench {

/// Quantile by linear interpolation at rank q*(n-1) over the sorted
/// samples (the common "type 7" rule). Throws on an empty sample set or q
/// outside [0, 1].
inline double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("quantile of an empty sample set");
  if (!(q >= 0.0 && q <= 1.0)) throw std::invalid_argument("quantile q outside [0, 1]");
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0) return samples[lo];
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

inline double median(std::vector<double> samples) { return quantile(std::move(samples), 0.5); }

/// A metric name starts with a letter or digit and holds at most 64
/// letters, digits, '_', '.' and '-'.
inline bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(),
                     [&](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

/// A unit holds 1 to 16 letters, digits, '_', '/', '%', '.' and '-'.
inline bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
           c == '_' || c == '/' || c == '%' || c == '.' || c == '-';
  });
}

}  // namespace perfbench
