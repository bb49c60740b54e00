#pragma once
/// \file channel_dynamics.hpp
/// Continuous channel hostility for a body-bus link: SIR interference
/// (`phy::InterferenceField`) and body-motion fading
/// (`phy::BodyMotionProcess`) composed into one time-varying frame-error
/// process (docs/robustness.md).
///
/// Where PR 6's `GilbertElliott` overlay models discrete *fault episodes*
/// (a burst-loss regime the channel visits and leaves), this layer models
/// the channel's *ambient physics*: co-located aggressor radios and the
/// wearer's posture shifting the link budget every query. The install
/// pattern mirrors `TdmaBus::set_channel_fault`: non-owning pointer, the
/// MAC consults it inside `frame_loss_probability`, and the clean path
/// (no dynamics installed, or a config with nothing enabled) is
/// bit-identical to pre-dynamics behavior.
///
/// Composition order inside the MAC: base link FER -> dynamics (this
/// class) -> Gilbert–Elliott fault overlay. Motion shifts the operating
/// SNR and the FER is *recomputed* from the modulation's BER waterfall at
/// the shifted point — a multiplier could never stress a clean link whose
/// base FER is ~0 — then interference mixes in the collided-state FER at
/// that same shifted SNR.

#include <cstdint>
#include <optional>
#include <vector>

#include "comm/link.hpp"
#include "phy/body_motion.hpp"
#include "phy/interference.hpp"
#include "sim/rng.hpp"

namespace iob::comm {

struct ChannelDynamicsConfig {
  /// Interference stress level; disengaged when absent or zero-aggressor.
  std::optional<phy::SirLevel> interference{};
  /// Body-motion process parameters; disengaged when absent.
  std::optional<phy::BodyMotionParams> motion{};
  /// RNG stream id for the motion chain's sojourn/transition draws (forked
  /// off the simulation root, like the MAC's 0x7d0a and the fault
  /// injector's 0xFA017 — installing dynamics never perturbs other draws).
  std::uint64_t stream_id = 0xC4A0;

  /// True when any component would actually perturb the channel.
  [[nodiscard]] bool any() const {
    return (interference.has_value() && interference->aggressors > 0 &&
            interference->duty_cycle > 0.0) ||
           motion.has_value();
  }
};

class ChannelDynamics {
 public:
  /// \param link the bus link whose operating point the dynamics displace
  /// \param rng  a stream forked for this process (`cfg.stream_id`); the
  ///             motion chain forks sub-stream 1 of it, mirroring the
  ///             fault injector's channel sub-stream discipline
  ChannelDynamics(const Link& link, ChannelDynamicsConfig cfg, sim::Rng rng);

  /// Loss probability for a frame of `payload_bytes` at sim time `t`,
  /// given the link's precomputed clean FER `base_fer` for that size.
  /// Query times must be non-decreasing (lazy motion advance). When the
  /// motion gain delta is 0 and interference is idle this returns
  /// `base_fer` unchanged — the bit-identity anchor.
  [[nodiscard]] double loss_probability(double t, std::uint32_t payload_bytes,
                                        double base_fer);

  [[nodiscard]] const phy::InterferenceField* interference() const {
    return field_ ? &*field_ : nullptr;
  }
  [[nodiscard]] phy::BodyMotionProcess* motion() {
    return motion_ ? &*motion_ : nullptr;
  }

 private:
  /// FER of a `payload_bytes` frame recomputed at `snr_db` on this link's
  /// modulation (same BER/packet-success pipeline as `Link::frame_error_rate`).
  [[nodiscard]] double fer_at(double snr_db, std::uint32_t payload_bytes) const;

  /// Quiet and collided-state FER of one (operating SNR, payload size).
  /// Both are pure functions of that key, and a simulation visits only a
  /// handful of keys (one SNR per motion state, a few frame sizes), so each
  /// is computed once and then looked up.
  struct FerMemo {
    std::uint64_t snr_bits;  ///< exact bit pattern of the SNR (dB)
    std::uint32_t payload_bytes;
    double quiet;            ///< fer_at(snr)
    double hit;              ///< fer_at(effective SNIR at snr); 0 without interference
  };
  [[nodiscard]] const FerMemo& memo_at(double snr_db, std::uint32_t payload_bytes);

  const Link& link_;
  std::optional<phy::InterferenceField> field_{};
  std::optional<phy::BodyMotionProcess> motion_{};
  std::vector<FerMemo> memo_;
};

}  // namespace iob::comm
