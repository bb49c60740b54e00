#pragma once
/// \file noise.hpp
/// Receiver noise modeling: thermal noise floor, noise figure, SNR.

#include "common/units.hpp"

namespace iob::phy {

/// Boltzmann constant (J/K).
inline constexpr double kBoltzmann = 1.380649e-23;

/// Thermal noise power (W) in bandwidth `bw_hz` at temperature `temp_k`.
double thermal_noise_power_w(double bw_hz, double temp_k = 290.0);

/// RMS thermal noise voltage (V) across resistance `r_ohm` in `bw_hz`
/// (v_n = sqrt(4 k T R B)) — used for voltage-mode EQS receivers.
double thermal_noise_voltage_v(double r_ohm, double bw_hz, double temp_k = 290.0);

/// Receiver front-end description for SNR computations.
struct Receiver {
  double bandwidth_hz = 1.0 * units::MHz;
  double noise_figure_db = 10.0;
  double temp_k = 290.0;

  /// Effective input-referred noise power (W).
  [[nodiscard]] double noise_power_w() const;

  /// SNR (linear) for a received signal power (W).
  [[nodiscard]] double snr(double rx_power_w) const;

  /// SNR (dB).
  [[nodiscard]] double snr_db(double rx_power_w) const;
};

}  // namespace iob::phy
