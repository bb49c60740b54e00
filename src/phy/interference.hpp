#pragma once
/// \file interference.hpp
/// Co-channel interference field: maps an SIR stress level — how many
/// aggressor radios share the band and how often each transmits — to the
/// frame-error-rate inflation a victim link sees (docs/robustness.md).
///
/// The model is a duty-cycled collision mixture, not a constant FER
/// multiplier. A constant multiplier cannot stress a clean link (Wi-R at
/// its default budget has FER ~ 0, and k x 0 = 0); what interference really
/// does is displace the operating point on the modulation's BER waterfall.
/// So the field computes the *effective SNIR* of the collided state
/// (`phy::effective_snir`: noise and leaked interferer power add) and
/// re-derives the packet error rate from `bit_error_rate` +
/// `packet_success_probability` at that SNIR. The observed loss is then the
/// mixture of the quiet and collided states weighted by the probability
/// that at least one aggressor is on the air.

#include <cstdint>

#include "phy/modulation.hpp"

namespace iob::phy {

/// One point on an interference-stress axis. `aggressors == 0` (or
/// `duty_cycle == 0`) is the clean channel: no mixture term, no FER change.
struct SirLevel {
  /// Co-located interfering radios sharing the victim's band.
  unsigned aggressors = 0;
  /// Fraction of time each aggressor transmits (independent on/off).
  double duty_cycle = 0.0;
  /// Victim-signal-to-single-aggressor power ratio at the victim receiver,
  /// in dB, *before* the receiver's interference rejection is applied.
  double aggressor_sir_db = 6.0;
  /// Receiver interference rejection (filtering/capture), dB. EQS/Wi-R
  /// front-ends reject far more than generic RF (see `WiRLinkParams`).
  double rejection_db = 20.0;
};

class InterferenceField {
 public:
  explicit InterferenceField(SirLevel level = {});

  [[nodiscard]] const SirLevel& level() const { return level_; }

  /// True when the level can perturb the channel at all.
  [[nodiscard]] bool active() const {
    return level_.aggressors > 0 && level_.duty_cycle > 0.0;
  }

  /// P(at least one aggressor on the air) = 1 - (1 - duty)^aggressors.
  [[nodiscard]] double active_probability() const { return p_active_; }

  /// SIR of the collided state, dB: the single-aggressor SIR degraded by
  /// the mean number of simultaneously-active aggressors (power adds),
  /// conditioned on the state being collided at all.
  [[nodiscard]] double aggregate_sir_db() const { return sir_agg_db_; }

  /// SNIR (dB) the demodulator sees during a collision, given the link's
  /// clean SNR (dB). Delegates to `phy::effective_snir`.
  [[nodiscard]] double effective_snir_db(double snr_db) const;

 private:
  SirLevel level_{};
  double p_active_ = 0.0;
  double sir_agg_db_ = 0.0;
};

}  // namespace iob::phy
