#include "phy/eqs_channel.hpp"

#include <cmath>

#include "common/expect.hpp"

namespace iob::phy {

namespace {
constexpr double kTwoPi = 6.283185307179586;
}

EqsChannel::EqsChannel(EqsChannelParams params) : params_(params) {
  IOB_EXPECTS(params_.c_body_f > 0 && params_.c_return_f > 0 && params_.c_couple_f > 0 &&
                  params_.c_load_f > 0,
              "all channel capacitances must be positive");
  IOB_EXPECTS(params_.r_load_highz_ohm > 0 && params_.r_load_50_ohm > 0,
              "termination resistances must be positive");
}

double EqsChannel::flat_band_gain() const {
  const auto& p = params_;
  const double forward = p.c_couple_f / (p.c_couple_f + p.c_load_f);
  const double ret = p.c_return_f / (p.c_return_f + p.c_body_f);
  return forward * ret;
}

double EqsChannel::flat_band_gain_db() const { return units::to_db_voltage(flat_band_gain()); }

double EqsChannel::corner_frequency_hz() const {
  const auto& p = params_;
  // RC corner of the receiver front-end: R_load against the series/shunt
  // capacitance it sees (coupling + load in parallel from the source side).
  const double c_eff = p.c_couple_f + p.c_load_f;
  return 1.0 / (kTwoPi * p.r_load_highz_ohm * c_eff);
}

double EqsChannel::voltage_gain(double freq_hz, double distance_m, Termination term) const {
  IOB_EXPECTS(freq_hz > 0.0, "frequency must be positive");
  IOB_EXPECTS(distance_m >= 0.0, "distance must be non-negative");
  const auto& p = params_;

  // Residual conductive loss along the body path.
  const double body_loss = units::from_db_voltage(-p.body_loss_db_per_m * distance_m);

  if (term == Termination::kHighImpedance) {
    // Single-pole high-pass with corner at corner_frequency_hz(); the corner
    // sits at ~10s of kHz for a 10 Mohm termination, so the band of interest
    // (100 kHz - 30 MHz) is flat, matching measured EQS-HBC responses.
    const double fc = corner_frequency_hz();
    const double ratio = freq_hz / fc;
    const double hp = ratio / std::sqrt(1.0 + ratio * ratio);
    return flat_band_gain() * hp * body_loss;
  }

  // 50-ohm termination: the load impedance (50 ohm) forms a divider against
  // the coupling capacitance's impedance 1/(w*C). Gain rises ~20 dB/dec and
  // only approaches the capacitive flat-band far above the EQS regime,
  // reproducing the classic pessimistic 50-ohm measurements.
  const double w = kTwoPi * freq_hz;
  const double zc = 1.0 / (w * p.c_couple_f);
  const double divider = p.r_load_50_ohm / std::hypot(p.r_load_50_ohm, zc);
  const double ret = p.c_return_f / (p.c_return_f + p.c_body_f);
  return ret * divider * body_loss;
}

double EqsChannel::gain_db(double freq_hz, double distance_m, Termination term) const {
  return units::to_db_voltage(voltage_gain(freq_hz, distance_m, term));
}


}  // namespace iob::phy
