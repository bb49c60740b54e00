#include "comm/tdma.hpp"

#include <algorithm>
#include <utility>

#include "comm/channel_dynamics.hpp"
#include "comm/gilbert_elliott.hpp"
#include "common/expect.hpp"

namespace iob::comm {

TdmaBus::TdmaBus(sim::Simulator& sim, const Link& link, TdmaConfig config, sim::TraceSink* trace)
    : sim_(sim), link_(link), config_(config), trace_(trace), rng_(sim.rng().fork(0x7d0a)) {
  if (config_.slot_s <= 0.0) {
    // Auto-size from this link's rate: the slot fits one MTU frame plus
    // margin, so slower buses (BLE/NFMI/ULP-Wi-R) stop inheriting a slot
    // constant tuned for Wi-R's 4 Mb/s PHY.
    IOB_EXPECTS(config_.auto_slot_mtu_bytes >= 1, "auto-slot MTU must be at least 1 byte");
    IOB_EXPECTS(config_.auto_slot_margin >= 1.0, "auto-slot margin must be >= 1");
    config_.slot_s = link_.frame_time_s(config_.auto_slot_mtu_bytes) * config_.auto_slot_margin;
  }
  IOB_EXPECTS(config_.slot_s > 0.0, "slot duration must be positive");
  IOB_EXPECTS(config_.guard_s >= 0.0, "guard time must be non-negative");
  IOB_EXPECTS(config_.health_ewma_alpha > 0.0 && config_.health_ewma_alpha <= 1.0,
              "health EWMA alpha must be in (0, 1]");
  const double min_frame = link_.frame_time_s(1);
  IOB_EXPECTS(config_.slot_s >= min_frame, "slot must fit at least a minimal frame");
}

NodeId TdmaBus::add_node(std::string name, unsigned slot_weight) {
  IOB_EXPECTS(slot_weight >= 1, "slot weight must be at least 1");
  IOB_EXPECTS(!running_, "cannot add nodes while the bus is running");
  NodeState st;
  st.weight = slot_weight;
  nodes_.push_back(std::move(st));
  MacNodeStats s;
  s.name = std::move(name);
  stats_.nodes.push_back(std::move(s));
  return static_cast<NodeId>(nodes_.size());  // 1-based
}

StreamId TdmaBus::intern_stream(const std::string& tag) {
  return stream_ids_.try_emplace(tag, static_cast<StreamId>(stream_ids_.size())).first->second;
}

StreamId TdmaBus::find_stream(const std::string& tag) const {
  const auto it = stream_ids_.find(tag);
  return it == stream_ids_.end() ? kNoStream : it->second;
}

TdmaBus::PayloadCost TdmaBus::payload_cost(std::uint32_t payload_bytes) {
  if (payload_bytes < costs_.size() && costs_[payload_bytes].airtime_s >= 0.0) {
    return costs_[payload_bytes];
  }
  const PayloadCost c{link_.frame_time_s(payload_bytes), link_.frame_tx_energy_j(payload_bytes),
                      link_.frame_rx_energy_j(payload_bytes),
                      link_.frame_error_rate(payload_bytes)};
  // Sizes no window admits are not stored, so an oversize request that a
  // precondition is about to reject cannot grow the table without bound.
  if (c.airtime_s <= std::max(config_.slot_s, config_.downlink_slot_s)) {
    if (payload_bytes >= costs_.size()) {
      costs_.resize(payload_bytes + std::size_t{1}, PayloadCost{-1.0, 0.0, 0.0, 0.0});
    }
    costs_[payload_bytes] = c;
  }
  return c;
}

void TdmaBus::count_overflow(NodeId node, std::uint64_t n) {
  auto& ns = stats_.nodes[node - 1];
  if (!hub_up_) {
    // The queue is acting as the store-and-retry buffer for a hub
    // outage; this overflow is lost *to the fault*, not to congestion.
    ns.frames_dropped_overflow += n;
  } else {
    // Hub up: the schedule is simply saturated.
    ns.frames_dropped_overflow_clean += n;
  }
}

std::uint32_t TdmaBus::enqueue(NodeId node, Frame first, std::uint32_t fragments,
                               std::uint32_t last_bytes) {
  IOB_EXPECTS(node >= 1 && node <= nodes_.size(), "unknown node id");
  IOB_EXPECTS(fragments >= 1, "a fragment run needs at least one fragment");
  if (last_bytes == 0) last_bytes = first.payload_bytes;
  IOB_EXPECTS(payload_cost(first.payload_bytes).airtime_s <= config_.slot_s &&
                  payload_cost(last_bytes).airtime_s <= config_.slot_s,
              "frame exceeds slot duration and could never transmit");
  auto& st = nodes_[node - 1];
  // The queue admits fragments in order until it is full, so a run that
  // crosses the bound keeps its leading fragments, all full-size.
  const auto accepted = static_cast<std::uint32_t>(
      std::min<std::size_t>(fragments, config_.max_queue_frames - st.frames));
  if (accepted < fragments) count_overflow(node, fragments - accepted);
  if (accepted == 0) return 0;
  first.src = node;
  first.dst = kHubId;
  FragmentRun run{first, accepted, accepted == fragments ? last_bytes : first.payload_bytes};
  if (accepted == 1) run.head.payload_bytes = run.last_bytes;
  st.queue.push_back(run);
  st.frames += accepted;
  return accepted;
}

bool TdmaBus::enqueue_downlink(NodeId dst, Frame frame) {
  IOB_EXPECTS(dst >= 1 && dst <= nodes_.size(), "unknown destination node");
  IOB_EXPECTS(config_.downlink_slot_s > 0.0, "downlink window disabled in TdmaConfig");
  IOB_EXPECTS(payload_cost(frame.payload_bytes).airtime_s <= config_.downlink_slot_s,
              "downlink frame exceeds its window");
  if (downlink_queue_.size() >= config_.max_queue_frames) {
    // Charged to the destination leaf, like an uplink overflow, so every
    // overflow lands in exactly one drop bucket.
    count_overflow(dst, 1);
    return false;
  }
  frame.src = kHubId;
  frame.dst = dst;
  downlink_queue_.push_back(frame);
  return true;
}

double TdmaBus::superframe_duration_s() const {
  const double beacon = link_.frame_time_s(config_.beacon_bytes);
  unsigned total_slots = 0;
  for (const auto& n : nodes_) total_slots += n.weight;
  return beacon + config_.downlink_slot_s +
         static_cast<double>(total_slots) * (config_.slot_s + config_.guard_s);
}

void TdmaBus::start(sim::Time t0) {
  IOB_EXPECTS(!nodes_.empty(), "TDMA bus needs at least one node");
  running_ = true;
  started_at_ = t0;
  sim_.at(t0, [this] { run_superframe(); });
}

std::size_t TdmaBus::queue_depth(NodeId node) const {
  IOB_EXPECTS(node >= 1 && node <= nodes_.size(), "unknown node id");
  return nodes_[node - 1].frames;
}

void TdmaBus::set_node_powered(NodeId node, bool powered) {
  IOB_EXPECTS(node >= 1 && node <= nodes_.size(), "unknown node id");
  auto& st = nodes_[node - 1];
  if (st.powered == powered) return;
  st.powered = powered;
  if (!powered) {
    // Brownout loses whatever was staged at the leaf, every fragment of
    // every run.
    auto& ns = stats_.nodes[node - 1];
    ns.frames_dropped_fault += st.frames;
    st.queue.clear();
    st.frames = 0;
    st.head_retries = 0;
  }
}

void TdmaBus::count_shed(NodeId node) {
  IOB_EXPECTS(node >= 1 && node <= nodes_.size(), "unknown node id");
  auto& ns = stats_.nodes[node - 1];
  ++ns.frames_dropped_shed;
}

double TdmaBus::frame_loss_probability(sim::Time t, std::uint32_t payload_bytes,
                                       double base_fer) {
  double p = base_fer;
  if (channel_dynamics_) p = channel_dynamics_->loss_probability(t, payload_bytes, p);
  return channel_fault_ ? channel_fault_->loss_probability(t, p) : p;
}

void TdmaBus::update_health_ewmas() {
  const double a = config_.health_ewma_alpha;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    auto& st = nodes_[i];
    auto& ns = stats_.nodes[i];
    const std::uint64_t delivered = ns.frames_delivered - st.ewma_delivered;
    const std::uint64_t retried = ns.frames_retried - st.ewma_retried;
    st.ewma_delivered = ns.frames_delivered;
    st.ewma_retried = ns.frames_retried;
    const std::uint64_t attempts = delivered + retried;
    if (attempts == 0) continue;  // idle superframe: no channel evidence
    const double inv = 1.0 / static_cast<double>(attempts);
    ns.delivery_ratio_ewma =
        (1.0 - a) * ns.delivery_ratio_ewma + a * static_cast<double>(delivered) * inv;
    ns.retry_rate_ewma =
        (1.0 - a) * ns.retry_rate_ewma + a * static_cast<double>(retried) * inv;
  }
}

void TdmaBus::run_superframe() {
  if (!running_) return;
  const sim::Time t0 = sim_.now();

  if (!hub_up_) {
    // Hub crashed: no beacon, no windows. The cadence is preserved so the
    // restarted hub and the leaves re-synchronize at the next boundary;
    // leaf queues hold (store-and-retry) until then.
    ++stats_.superframes_skipped;
    const sim::Time cursor = t0 + superframe_duration_s();
    stats_.elapsed_s = (cursor - started_at_);
    if (trace_) trace_->emit(t0, "tdma", "superframe_skipped", "hub down");
    sim_.at(cursor, [this] { run_superframe(); });
    return;
  }

  // Beacon: hub transmits, every powered leaf listens to resynchronize.
  const PayloadCost beacon = payload_cost(config_.beacon_bytes);
  stats_.hub_tx_energy_j += beacon.tx_j;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].powered) stats_.nodes[i].rx_energy_j += beacon.rx_j;
  }
  stats_.busy_airtime_s += beacon.airtime_s;
  if (trace_) trace_->emit(t0, "tdma", "beacon", "");

  // Downlink (actuation) window, if configured.
  sim::Time cursor = t0 + beacon.airtime_s;
  if (config_.downlink_slot_s > 0.0) {
    stats_.busy_airtime_s += run_downlink(cursor);
    cursor += config_.downlink_slot_s;
  }

  // Slots, in node order, weight slots each.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    for (unsigned s = 0; s < nodes_[i].weight; ++s) {
      const double used = run_slot(i, cursor);
      stats_.busy_airtime_s += used;
      cursor += config_.slot_s + config_.guard_s;
    }
  }

  stats_.elapsed_s = (cursor - started_at_);
  update_health_ewmas();
  if (on_superframe_end_) on_superframe_end_(cursor);
  sim_.at(cursor, [this] { run_superframe(); });
}

double TdmaBus::run_downlink(sim::Time window_start) {
  double used = 0.0;
  while (!downlink_queue_.empty()) {
    Frame& head = downlink_queue_.front();
    if (!nodes_[head.dst - 1].powered) {
      // Destination browned out: the hub (which tracks membership via slot
      // occupancy) drops the actuation frame instead of burning airtime.
      auto& dead = stats_.nodes[head.dst - 1];
      ++dead.frames_dropped_fault;
      downlink_queue_.pop_front();
      continue;
    }
    const PayloadCost c = payload_cost(head.payload_bytes);
    if (used + c.airtime_s > config_.downlink_slot_s) break;

    used += c.airtime_s;
    stats_.hub_tx_energy_j += c.tx_j;
    auto& ns = stats_.nodes[head.dst - 1];
    ns.rx_energy_j += c.rx_j;

    const bool lost =
        rng_.bernoulli(frame_loss_probability(window_start + used, head.payload_bytes, c.fer));
    if (!lost) {
      const sim::Time delivered_at = window_start + used;
      ++ns.downlink_frames;
      ns.downlink_bytes += head.payload_bytes;
      ns.downlink_latency_s.add(delivered_at - head.created_s);
      if (trace_) {
        trace_->emit(delivered_at, "tdma", "downlink",
                     ns.name + " bytes=" + std::to_string(head.payload_bytes));
      }
      if (on_downlink_) on_downlink_(head, delivered_at);
      downlink_queue_.pop_front();
    }
    // Lost downlink frames stay at the head and retry next superframe; the
    // hub is not energy-constrained, so no retry cap is enforced here.
  }
  return used;
}

void TdmaBus::pop_fragment(NodeState& st) {
  --st.frames;
  st.head_retries = 0;
  FragmentRun& run = st.queue.front();
  if (--run.left == 0) {
    st.queue.pop_front();
    return;
  }
  ++run.head.seq;
  if (run.left == 1) run.head.payload_bytes = run.last_bytes;
}

double TdmaBus::run_slot(std::size_t node_idx, sim::Time slot_start) {
  auto& node = nodes_[node_idx];
  auto& ns = stats_.nodes[node_idx];
  double used = 0.0;

  if (!node.powered) return 0.0;  // browned-out leaf: its slots idle

  while (!node.queue.empty()) {
    Frame& head = node.queue.front().head;
    const PayloadCost c = payload_cost(head.payload_bytes);
    if (used + c.airtime_s > config_.slot_s) break;  // does not fit in the remainder

    used += c.airtime_s;
    ns.tx_energy_j += c.tx_j;
    stats_.hub_rx_energy_j += c.rx_j;

    const bool lost =
        rng_.bernoulli(frame_loss_probability(slot_start + used, head.payload_bytes, c.fer));
    if (lost) {
      ++ns.frames_retried;
      if (++node.head_retries > config_.max_retries) {
        ++ns.frames_dropped_arq;
        pop_fragment(node);
      }
      continue;  // retry (same or next slot)
    }

    // Delivered at the end of its airtime within this slot.
    const sim::Time delivered_at = slot_start + used;
    ++ns.frames_delivered;
    ns.bytes_delivered += head.payload_bytes;
    ns.latency_s.add(delivered_at - head.created_s);
    if (trace_) {
      trace_->emit(delivered_at, "tdma", "deliver",
                   ns.name + " bytes=" + std::to_string(head.payload_bytes));
    }
    if (on_delivery_) on_delivery_(head, delivered_at);
    pop_fragment(node);
  }
  return used;
}

}  // namespace iob::comm
