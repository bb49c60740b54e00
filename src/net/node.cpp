#include "net/node.hpp"

#include <algorithm>
#include <limits>

#include "common/expect.hpp"
#include "nn/model.hpp"
#include "nn/quantize.hpp"

namespace iob::net {

Node::Node(sim::Simulator& sim, comm::TdmaBus& bus, NodeConfig config)
    : sim_(sim),
      bus_(bus),
      config_(std::move(config)),
      battery_(config_.battery_mah, config_.battery_v),
      rng_(sim.rng().fork(std::hash<std::string>{}(config_.name))) {
  IOB_EXPECTS(config_.output_rate_bps > 0, "output rate must be positive");
  IOB_EXPECTS(config_.frame_bytes > 0, "frame size must be positive");
  IOB_EXPECTS(config_.settle_period_s > 0, "settle period must be positive");
  IOB_EXPECTS(config_.phase_s >= 0, "traffic phase must be non-negative");

  if (config_.harvester) harvester_.emplace(*config_.harvester);

  mac_id_ = bus_.add_node(config_.name, config_.slot_weight);
  stream_id_ = bus_.intern_stream(config_.stream);

  if (config_.degradation) deg_ctrl_.emplace(*config_.degradation);

  if (config_.split) {
    const LeafSplit& sp = *config_.split;
    IOB_EXPECTS(sp.net != nullptr, "leaf split needs a model");
    IOB_EXPECTS(sp.period_s > 0, "split inference period must be positive");
    IOB_EXPECTS(sp.energy_per_mac_j >= 0, "leaf energy per MAC must be non-negative");
    split_precision_ = sp.precision;
    if (sp.adaptive) split_ctrl_.emplace(*sp.adaptive);
    apply_split(split_ctrl_ ? split_ctrl_->current().split_at : sp.split_at);
    // Split traffic source: one prefix execution + boundary-activation
    // shipment per inference period (the payload argument is unused — the
    // wire size is the serialized activation, fragmented at enqueue time).
    source_ = std::make_unique<workload::PeriodicSource>(
        sim_, sp.period_s, config_.frame_bytes,
        [this](sim::Time t, std::uint32_t) {
          if (!powered_) return;            // browned-out node is silent
          if (battery_.depleted()) return;  // dead node stops inferring
          if (shed_this_event()) return;    // degradation ladder duty-cycling
          run_split_inference(t);
        },
        config_.phase_s);
  } else {
    // Frame source: period chosen so payload bits match the output rate.
    source_ = std::make_unique<workload::PeriodicSource>(
        sim_, frame_period_s(), config_.frame_bytes,
        [this](sim::Time t, std::uint32_t bytes) {
          if (!powered_) return;            // browned-out node is silent
          if (battery_.depleted()) return;  // dead node stops transmitting
          if (shed_this_event()) return;    // degradation ladder duty-cycling
          comm::Frame f;
          f.kind = comm::FrameKind::kData;
          f.seq = seq_++;
          // A downgraded codec emits smaller payloads at the same cadence
          // (rung 0 keeps the source's own size bit-identical).
          f.payload_bytes = eff_frame_bytes_ != 0 ? eff_frame_bytes_ : bytes;
          f.created_s = t;
          f.stream = stream_id_;
          bus_.enqueue(mac_id_, f);
        },
        config_.phase_s);
  }

  // Energy-ledger settlement.
  sim_.every(config_.settle_period_s, config_.settle_period_s, [this](sim::Time) { settle(); });
}

double Node::frame_period_s() const {
  return static_cast<double>(config_.frame_bytes) * 8.0 / config_.output_rate_bps;
}

void Node::apply_split(std::size_t k) {
  const LeafSplit& sp = *config_.split;
  IOB_EXPECTS(k <= sp.net->layer_count(), "split point out of range");
  split_stats_.split_at = k;
  const auto& profiles = sp.net->profiles();
  prefix_macs_ = 0;
  for (std::size_t i = 0; i < k; ++i) prefix_macs_ += profiles[i].macs;
  // The shipped payload is the *serialized* boundary activation — the same
  // bytes `nn::serialize_activation` would produce, header included. k == 0
  // ships the raw model input; k == n ships the final logits.
  // `split_precision_` is the configured precision unless the degradation
  // ladder forced the int8 wire format.
  wire_bytes_ = static_cast<std::uint64_t>(nn::activation_wire_bytes(
      nn::shape_elems(sp.net->layer_input_shape(k)), split_precision_));
}

bool Node::shed_this_event() {
  if (shed_modulus_ <= 1) return false;
  if ((shed_counter_++ % shed_modulus_) == 0) return false;  // this one flies
  bus_.count_shed(mac_id_);
  return true;
}

void Node::apply_degradation(const DegradationStep& step) {
  eff_frame_bytes_ =
      step.bitrate_scale >= 1.0
          ? 0
          : std::max<std::uint32_t>(
                1, static_cast<std::uint32_t>(static_cast<double>(config_.frame_bytes) *
                                                  step.bitrate_scale +
                                              0.5));
  shed_modulus_ = std::max(1u, step.shed_modulus);
  if (!config_.split) return;
  const LeafSplit& sp = *config_.split;
  const nn::Precision want_p = step.int8_wire ? nn::Precision::kInt8 : sp.precision;
  std::size_t want_k = split_stats_.split_at;
  if (step.hub_only_split) {
    if (!deg_hub_only_) {
      deg_saved_split_ = split_stats_.split_at;  // restore target for recovery
      deg_hub_only_ = true;
    }
    want_k = 0;
  } else if (deg_hub_only_) {
    deg_hub_only_ = false;
    want_k = deg_saved_split_;
  }
  const bool k_changed = want_k != split_stats_.split_at;
  if (want_p != split_precision_ || k_changed) {
    split_precision_ = want_p;
    apply_split(want_k);
    if (k_changed && split_resync_) split_resync_(config_.stream, want_k);
  }
}

void Node::run_split_inference(double t) {
  const LeafSplit& sp = *config_.split;
  ++split_stats_.inferences;
  // Battery-charged at settle.
  split_stats_.compute_energy_j += static_cast<double>(prefix_macs_) * sp.energy_per_mac_j;

  // Ship the boundary activation as one fragment run at the bus MTU (the
  // TDMA bus requires each frame to fit one slot): full-MTU fragments, then
  // the remainder. Sequence numbers and shipped bytes count every fragment,
  // queued or not.
  const std::uint64_t mtu = config_.frame_bytes;
  const std::uint64_t fragments = (wire_bytes_ + mtu - 1) / mtu;
  comm::Frame f;
  f.kind = comm::FrameKind::kData;
  f.seq = seq_;
  f.payload_bytes = static_cast<std::uint32_t>(std::min(wire_bytes_, mtu));
  f.created_s = t;
  f.stream = stream_id_;
  bus_.enqueue(mac_id_, f, static_cast<std::uint32_t>(fragments),
               static_cast<std::uint32_t>(wire_bytes_ - (fragments - 1) * mtu));
  seq_ += static_cast<std::uint32_t>(fragments);
  split_stats_.activation_bytes += wire_bytes_;
}

void Node::enable_brownout(const sim::BrownoutPlan& plan) {
  IOB_EXPECTS(plan.off_soc >= 0.0 && plan.off_soc < 1.0, "off threshold must be a SoC fraction");
  IOB_EXPECTS(plan.on_soc > plan.off_soc && plan.on_soc <= 1.0,
              "reboot threshold needs hysteresis above the off threshold");
  IOB_EXPECTS(plan.reboot_energy_j >= 0.0, "reboot energy must be non-negative");
  IOB_EXPECTS(plan.sleep_power_w >= 0.0, "sleep power must be non-negative");
  brownout_ = plan;
}

void Node::settle() {
  const double now = sim_.now();
  const double dt = now - last_settle_t_;
  if (dt <= 0) return;
  last_settle_t_ = now;

  // Sense + ISA integrate over wall time; comm is the MAC ledger delta.
  // While browned out only the sleep floor burns (the MAC delta is zero
  // anyway: the bus skips unpowered nodes).
  const auto& mac = bus_.stats().nodes[mac_id_ - 1];
  const double comm_total = mac.tx_energy_j + mac.rx_energy_j;
  const double comm_delta = comm_total - settled_comm_j_;
  settled_comm_j_ = comm_total;

  const double static_w =
      powered_ ? config_.sense_power_w + config_.isa_power_w : brownout_->sleep_power_w;
  // Split prefix compute accrues per inference and is charged here, like
  // the MAC ledger delta (zero without a split).
  const double split_delta = split_stats_.compute_energy_j - settled_split_j_;
  settled_split_j_ = split_stats_.compute_energy_j;
  const double spend = static_w * dt + comm_delta + split_delta;
  consumed_j_ += spend;
  battery_.discharge(spend);

  if (harvester_) {
    const double gain = harvester_->sample_energy_j(rng_, dt, now);
    harvested_j_ += gain;
    battery_.charge(gain);
  }

  // Adaptive re-partitioning: re-evaluate the split point against the
  // battery glide path, and re-sync the hub session when it moves. Depends
  // only on battery state and elapsed time — deterministic. Suspended while
  // the degradation ladder holds the node in hub-only retreat (the retreat
  // outranks the glide path until the channel heals).
  if (split_ctrl_ && powered_ && !battery_.depleted() && !deg_hub_only_) {
    const std::size_t idx = split_ctrl_->update(battery_, now);
    const std::size_t k = split_ctrl_->candidate(idx).split_at;
    if (k != split_stats_.split_at) {
      apply_split(k);
      ++split_stats_.repartitions;
      if (split_resync_) split_resync_(config_.stream, k);
    }
  }

  // Graceful degradation: sample the MAC's channel-health EWMAs and walk
  // the ladder. Deterministic — inputs are the node's own MAC counters and
  // queue depth (no extra RNG draws), so armed grids stay byte-identical
  // across thread counts.
  if (deg_ctrl_ && powered_ && !battery_.depleted()) {
    ChannelHealth h;
    h.loss = 1.0 - mac.delivery_ratio_ewma;
    h.retry_rate = mac.retry_rate_ewma;
    h.queue_depth = bus_.queue_depth(mac_id_);
    const std::size_t prev = deg_ctrl_->current_index();
    if (deg_ctrl_->update(h, now) != prev) apply_degradation(deg_ctrl_->current());
  }

  if (brownout_) update_power_state(now);
}

void Node::update_power_state(double now) {
  if (powered_ && battery_.soc() < brownout_->off_soc) {
    powered_ = false;
    powered_off_at_ = now;
    bus_.set_node_powered(mac_id_, false);
  } else if (!powered_ && battery_.soc() >= brownout_->on_soc) {
    // Boot cost is paid out of the recharge margin; `on_soc - off_soc`
    // hysteresis is what keeps this from oscillating (see BrownoutPlan).
    battery_.discharge(brownout_->reboot_energy_j);
    powered_ = true;
    ++reboots_;
    downtime_closed_s_ += now - powered_off_at_;
    bus_.set_node_powered(mac_id_, true);
  }
}

double Node::downtime_s(double now) const {
  return downtime_closed_s_ + (powered_ ? 0.0 : now - powered_off_at_);
}

double Node::availability(double now) const {
  if (now <= 0.0) return 1.0;
  return 1.0 - downtime_s(now) / now;
}

double Node::mttr_s(double now) const {
  const std::uint64_t episodes = reboots_ + (powered_ ? 0 : 1);
  if (episodes == 0) return 0.0;
  return downtime_s(now) / static_cast<double>(episodes);
}

double Node::average_power_w() const {
  const double t = sim_.now();
  if (t <= 0) return 0.0;
  // Include not-yet-settled MAC energy for an up-to-date figure.
  const auto& mac = bus_.stats().nodes[mac_id_ - 1];
  const double comm_total = mac.tx_energy_j + mac.rx_energy_j;
  const double unsettled_comm = comm_total - settled_comm_j_;
  const double static_w =
      powered_ ? config_.sense_power_w + config_.isa_power_w : brownout_->sleep_power_w;
  const double unsettled_static = static_w * (t - last_settle_t_);
  const double unsettled_split = split_stats_.compute_energy_j - settled_split_j_;
  return (consumed_j_ + unsettled_comm + unsettled_static + unsettled_split) / t;
}

double Node::comm_power_w() const {
  const double t = sim_.now();
  if (t <= 0) return 0.0;
  const auto& mac = bus_.stats().nodes[mac_id_ - 1];
  return (mac.tx_energy_j + mac.rx_energy_j) / t;
}

double Node::projected_life_s() const {
  const double p = average_power_w();
  const double h = harvester_ ? harvester_->average_power_w() : 0.0;
  const double net = p - h;
  if (net <= 0) return std::numeric_limits<double>::infinity();
  return battery_.remaining_j() / net;
}

}  // namespace iob::net
