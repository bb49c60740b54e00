#include "partition/adaptive_split.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/expect.hpp"

namespace iob::partition {

double glide_power_w(const energy::Battery& battery, double elapsed_s, double mission_time_s) {
  IOB_EXPECTS(elapsed_s >= 0, "elapsed time must be non-negative");
  const double remaining_t = mission_time_s - elapsed_s;
  if (remaining_t <= 0) return std::numeric_limits<double>::infinity();  // mission done
  return battery.remaining_j() / remaining_t;
}

AdaptiveSplitController::AdaptiveSplitController(AdaptiveSplitConfig config)
    : config_(std::move(config)) {
  IOB_EXPECTS(!config_.candidates.empty(), "controller needs at least one split candidate");
  IOB_EXPECTS(config_.mission_time_s > 0, "mission time must be positive");
  IOB_EXPECTS(config_.hysteresis >= 1.0, "hysteresis factor must be >= 1");
  double prev = std::numeric_limits<double>::infinity();
  for (const SplitCandidate& c : config_.candidates) {
    IOB_EXPECTS(c.leaf_power_w >= 0, "candidate leaf power must be non-negative");
    IOB_EXPECTS(c.leaf_power_w <= prev * 1.0000001,
                "candidates must be ordered by non-increasing leaf power");
    prev = c.leaf_power_w;
  }
}

std::size_t AdaptiveSplitController::update(const energy::Battery& battery, double elapsed_s) {
  const double budget = glide_power_w(battery, elapsed_s, config_.mission_time_s);

  // Step down while the current split overshoots the glide budget.
  while (current_ + 1 < config_.candidates.size() &&
         config_.candidates[current_].leaf_power_w > budget) {
    ++current_;
  }
  // Step back up only when the richer split fits with hysteresis margin.
  while (current_ > 0 &&
         config_.candidates[current_ - 1].leaf_power_w * config_.hysteresis < budget) {
    --current_;
  }
  return current_;
}

std::vector<SplitCandidate> AdaptiveSplitController::candidates_from(const Partitioner& part,
                                                                     double inference_hz) {
  IOB_EXPECTS(inference_hz > 0, "inference rate must be positive");
  const std::size_t n = part.model().layer_count();
  std::vector<SplitCandidate> all;
  all.reserve(n + 1);
  for (std::size_t k = 0; k <= n; ++k) {
    const PartitionPlan plan = part.evaluate(k, n);
    all.push_back({k, plan.leaf_energy_j() * inference_hz});
  }
  std::stable_sort(all.begin(), all.end(), [](const SplitCandidate& a, const SplitCandidate& b) {
    if (a.leaf_power_w != b.leaf_power_w) return a.leaf_power_w > b.leaf_power_w;
    return a.split_at < b.split_at;
  });
  // Thin to strictly decreasing power: equal-power candidates add no
  // glide-path resolution, and the first (smallest k) wins deterministically.
  std::vector<SplitCandidate> out;
  for (const SplitCandidate& c : all) {
    if (out.empty() || c.leaf_power_w < out.back().leaf_power_w) out.push_back(c);
  }
  return out;
}

}  // namespace iob::partition
