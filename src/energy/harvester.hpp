#pragma once
/// \file harvester.hpp
/// Energy-harvesting model. Paper Sec. V: "With current energy harvesting
/// modalities, 10-200 uW power harvesting is possible in indoor conditions."
/// A node whose average platform power sits below its harvest average is
/// charging-free — the paper's "perpetually operable" end state.

#include <vector>

#include "common/units.hpp"
#include "sim/rng.hpp"

namespace iob::energy {

enum class HarvestSource {
  kIndoorPhotovoltaic,  ///< indoor light, strongly diurnal
  kThermoelectric,      ///< body-heat TEG, steady while worn
  kRfAmbient,           ///< ambient RF scavenging, weak and bursty
};

struct HarvesterParams {
  HarvestSource source = HarvestSource::kIndoorPhotovoltaic;
  /// Mean harvested power while the source is active (W). Defaults span the
  /// paper's 10-200 uW indoor window.
  double mean_power_w = 50.0 * units::uW;
  /// Fraction of time the source is available (lights on / device worn).
  double availability = 0.7;
  /// Relative power fluctuation while active (sigma / mean).
  double relative_sigma = 0.2;
  /// Optional 24-entry hour-of-day availability multipliers in [0, 1]
  /// (indoor light diurnality: dark nights, bright office hours). Empty
  /// means a flat profile.
  std::vector<double> hourly_profile{};
};

/// Representative office-worker indoor-PV profile: dark 22:00-07:00, dim
/// mornings/evenings, full availability 09:00-18:00.
std::vector<double> office_diurnal_profile();

class Harvester {
 public:
  explicit Harvester(HarvesterParams params = {});

  /// Long-run average harvested power (W): mean * availability * profile
  /// mean.
  [[nodiscard]] double average_power_w() const;

  /// Availability multiplier at a simulation time (wraps modulo 24 h).
  [[nodiscard]] double profile_at(double sim_time_s) const;

  /// Sample instantaneous harvested power (W) for one interval; stochastic
  /// but non-negative. Used by the DES energy loop. `sim_time_s` applies
  /// the diurnal profile (ignored for flat profiles).
  double sample_power_w(sim::Rng& rng, double sim_time_s = 0.0) const;

  /// Energy harvested over `dt` seconds using one stochastic draw.
  double sample_energy_j(sim::Rng& rng, double dt_s, double sim_time_s = 0.0) const;

  [[nodiscard]] const HarvesterParams& params() const { return params_; }

 private:
  HarvesterParams params_;
  double profile_mean_ = 1.0;
};

}  // namespace iob::energy
