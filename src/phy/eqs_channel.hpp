#pragma once
/// \file eqs_channel.hpp
/// Electro-Quasistatic Human Body Communication (EQS-HBC) channel model —
/// the physical layer of "Body as a Wire" / Wi-R (paper Sec. IV).
///
/// Implements the lumped circuit-theoretic model of capacitive voltage-mode
/// EQS-HBC (Maity et al., IEEE TBME 2018 [17]): the transmitter couples a
/// low/medium-frequency electric field onto the conductive body; the return
/// path closes through the parasitic capacitance between the devices' local
/// grounds and earth ground. With a *high-impedance (capacitive) termination*
/// the channel transfer function is **flat** across the EQS band above a low
/// corner frequency, and its flat-band loss is set by capacitance ratios:
///
///   |H| ~= (C_ret / (C_ret + C_body)) * (C_couple / (C_couple + C_load))
///
/// With a 50-ohm (resistive) termination the same channel becomes high-pass
/// (gain rising ~20 dB/dec), which is why classic 50-ohm measurements
/// under-estimated HBC: the model exposes both terminations so tests and
/// benches can reproduce that contrast.
///
/// Distance dependence across the body is intentionally weak (<~2 dB/m):
/// EQS-HBC behaves like a wire, unlike radiative RF whose loss grows rapidly
/// with around-body distance (see rf_channel.hpp). The EQS regime is valid
/// while the body (~2 m) is electrically small: f <= ~30 MHz (paper Sec. IV).

#include "common/units.hpp"

namespace iob::phy {

/// Lumped elements of the capacitive EQS-HBC channel.
struct EqsChannelParams {
  /// Body-to-earth-ground capacitance (dominant shunt), typical ~150 pF.
  double c_body_f = 150.0 * units::pF;
  /// TX device ground-to-earth return capacitance, wearable-size ~0.3 pF.
  double c_return_f = 0.3 * units::pF;
  /// RX electrode coupling capacitance to the body, ~1 pF.
  double c_couple_f = 1.0 * units::pF;
  /// RX input (load) capacitance for the high-Z termination, ~0.5 pF.
  double c_load_f = 0.5 * units::pF;
  /// RX input resistance of the high-Z termination, ~10 Mohm.
  double r_load_highz_ohm = 10.0 * units::Mohm;
  /// Classic measurement termination for the contrast case, 50 ohm.
  double r_load_50_ohm = 50.0;
  /// Residual on-body attenuation per meter of channel length (dB/m); the
  /// body is a good but not perfect conductor.
  double body_loss_db_per_m = 1.5;

  static constexpr double wearable_to_wearable_extra_db = 20.0;
};

/// Termination style at the receiver.
enum class Termination {
  kHighImpedance,  ///< capacitive/voltage-mode: flat band, used by Wi-R
  kFiftyOhm,       ///< legacy 50-ohm: high-pass, strongly lossy at EQS
};

class EqsChannel {
 public:
  explicit EqsChannel(EqsChannelParams params = {});

  /// Voltage gain magnitude |V_rx / V_tx| at `freq_hz` across an on-body
  /// channel of `distance_m` meters (0 = co-located electrodes).
  [[nodiscard]] double voltage_gain(double freq_hz, double distance_m,
                                    Termination term = Termination::kHighImpedance) const;

  /// Same, in dB (20 log10 |H|).
  [[nodiscard]] double gain_db(double freq_hz, double distance_m,
                               Termination term = Termination::kHighImpedance) const;

  /// Flat-band (asymptotic high-frequency, zero-distance) gain for the
  /// high-Z termination — the capacitance-ratio product above.
  [[nodiscard]] double flat_band_gain() const;
  [[nodiscard]] double flat_band_gain_db() const;

  /// Low corner frequency of the high-Z response; the channel is flat above.
  [[nodiscard]] double corner_frequency_hz() const;

  [[nodiscard]] const EqsChannelParams& params() const { return params_; }

 private:
  EqsChannelParams params_;
};

}  // namespace iob::phy
