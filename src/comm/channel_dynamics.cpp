#include "comm/channel_dynamics.hpp"

#include <cmath>
#include <cstring>

#include "common/units.hpp"

namespace iob::comm {

ChannelDynamics::ChannelDynamics(const Link& link, ChannelDynamicsConfig cfg,
                                 sim::Rng rng)
    : link_(link) {
  if (cfg.interference.has_value() && cfg.interference->aggressors > 0 &&
      cfg.interference->duty_cycle > 0.0) {
    field_.emplace(*cfg.interference);
  }
  if (cfg.motion.has_value()) {
    // Sub-stream 1, so future dynamics components get their own forks
    // without re-seeding the motion chain (same discipline as the fault
    // injector's Gilbert–Elliott channel).
    motion_.emplace(*cfg.motion, rng.fork(1));
  }
}

double ChannelDynamics::fer_at(double snr_db, std::uint32_t payload_bytes) const {
  const auto n_bits = static_cast<unsigned>(link_.on_air_bits(payload_bytes));
  const double ber =
      phy::bit_error_rate(link_.spec().modulation, units::from_db(snr_db));
  return 1.0 - phy::packet_success_probability(ber, n_bits);
}

const ChannelDynamics::FerMemo& ChannelDynamics::memo_at(double snr_db,
                                                         std::uint32_t payload_bytes) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &snr_db, sizeof bits);
  for (const FerMemo& m : memo_) {
    if (m.snr_bits == bits && m.payload_bytes == payload_bytes) return m;
  }
  const double hit =
      field_ ? fer_at(field_->effective_snir_db(snr_db), payload_bytes) : 0.0;
  memo_.push_back({bits, payload_bytes, fer_at(snr_db, payload_bytes), hit});
  return memo_.back();
}

double ChannelDynamics::loss_probability(double t, std::uint32_t payload_bytes,
                                         double base_fer) {
  const double delta_db = motion_ ? motion_->gain_delta_db(t) : 0.0;
  // Bit-identity anchor: with no gain shift and no interference, return the
  // MAC's precomputed base FER untouched.
  if (delta_db == 0.0 && !field_) return base_fer;
  const FerMemo& m = memo_at(link_.spec().link_snr_db + delta_db, payload_bytes);
  // With no gain shift the quiet term is the base FER bit-for-bit, not a
  // recomputation.
  const double quiet = (delta_db == 0.0) ? base_fer : m.quiet;
  if (!field_) return quiet;
  const double p = field_->active_probability();
  return (1.0 - p) * quiet + p * m.hit;
}

}  // namespace iob::comm
