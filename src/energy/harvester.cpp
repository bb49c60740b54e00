#include "energy/harvester.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/expect.hpp"

namespace iob::energy {

std::vector<double> office_diurnal_profile() {
  // Hours 0..23: night, commute ramp, office plateau, evening taper.
  return {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.3, 0.7, 1.0, 1.0, 1.0,
          1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.8, 0.6, 0.4, 0.3, 0.1, 0.0};
}

Harvester::Harvester(HarvesterParams params) : params_(std::move(params)) {
  IOB_EXPECTS(params_.mean_power_w >= 0.0, "harvest power must be non-negative");
  IOB_EXPECTS(params_.availability >= 0.0 && params_.availability <= 1.0,
              "availability must be in [0, 1]");
  IOB_EXPECTS(params_.relative_sigma >= 0.0, "relative sigma must be non-negative");
  if (!params_.hourly_profile.empty()) {
    IOB_EXPECTS(params_.hourly_profile.size() == 24, "hourly profile needs 24 entries");
    double sum = 0.0;
    for (const double h : params_.hourly_profile) {
      IOB_EXPECTS(h >= 0.0 && h <= 1.0, "profile entries must be in [0, 1]");
      sum += h;
    }
    profile_mean_ = sum / 24.0;
  }
}

double Harvester::average_power_w() const {
  return params_.mean_power_w * params_.availability * profile_mean_;
}

double Harvester::profile_at(double sim_time_s) const {
  if (params_.hourly_profile.empty()) return 1.0;
  const double day_s = std::fmod(sim_time_s, 24.0 * 3600.0);
  const auto hour = static_cast<std::size_t>(day_s / 3600.0) % 24;
  return params_.hourly_profile[hour];
}

double Harvester::sample_power_w(sim::Rng& rng, double sim_time_s) const {
  const double gate = params_.availability * profile_at(sim_time_s);
  if (gate <= 0.0 || !rng.bernoulli(std::min(1.0, gate))) return 0.0;
  const double p =
      rng.normal(params_.mean_power_w, params_.relative_sigma * params_.mean_power_w);
  return std::max(0.0, p);
}

double Harvester::sample_energy_j(sim::Rng& rng, double dt_s, double sim_time_s) const {
  IOB_EXPECTS(dt_s >= 0.0, "interval must be non-negative");
  return sample_power_w(rng, sim_time_s) * dt_s;
}

}  // namespace iob::energy
