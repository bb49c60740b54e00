#include "phy/noise.hpp"

#include <cmath>

#include "common/expect.hpp"

namespace iob::phy {

double thermal_noise_power_w(double bw_hz, double temp_k) {
  IOB_EXPECTS(bw_hz > 0 && temp_k > 0, "bandwidth and temperature must be positive");
  return kBoltzmann * temp_k * bw_hz;
}

double thermal_noise_voltage_v(double r_ohm, double bw_hz, double temp_k) {
  IOB_EXPECTS(r_ohm > 0, "resistance must be positive");
  return std::sqrt(4.0 * kBoltzmann * temp_k * r_ohm * bw_hz);
}

double Receiver::noise_power_w() const {
  return thermal_noise_power_w(bandwidth_hz, temp_k) * units::from_db(noise_figure_db);
}

double Receiver::snr(double rx_power_w) const {
  IOB_EXPECTS(rx_power_w >= 0, "received power must be non-negative");
  return rx_power_w / noise_power_w();
}

double Receiver::snr_db(double rx_power_w) const { return units::to_db(snr(rx_power_w)); }

}  // namespace iob::phy
