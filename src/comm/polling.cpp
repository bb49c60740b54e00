#include "comm/polling.hpp"

#include <utility>

#include "common/expect.hpp"

namespace iob::comm {

PollingMac::PollingMac(sim::Simulator& sim, const Link& link, PollingConfig config,
                       sim::TraceSink* trace)
    : sim_(sim), link_(link), config_(config), trace_(trace), rng_(sim.rng().fork(0x901d)) {}

NodeId PollingMac::add_node(std::string name) {
  IOB_EXPECTS(!running_, "cannot add nodes while the MAC is running");
  nodes_.push_back(NodeState{});
  MacNodeStats s;
  s.name = std::move(name);
  stats_.nodes.push_back(std::move(s));
  return static_cast<NodeId>(nodes_.size());
}

bool PollingMac::enqueue(NodeId node, Frame frame) {
  IOB_EXPECTS(node >= 1 && node <= nodes_.size(), "unknown node id");
  auto& st = nodes_[node - 1];
  if (st.queue.size() >= config_.max_queue_frames) {
    ++stats_.nodes[node - 1].frames_dropped_overflow_clean;
    return false;
  }
  frame.src = node;
  frame.dst = kHubId;
  st.queue.push_back(std::move(frame));
  return true;
}

void PollingMac::start(sim::Time t0) {
  IOB_EXPECTS(!nodes_.empty(), "polling MAC needs at least one node");
  running_ = true;
  started_at_ = t0;
  idle_settled_until_ = t0;
  sim_.at(t0, [this] { poll_next(); });
}

void PollingMac::settle_idle_energy() {
  const sim::Time now = sim_.now();
  if (now <= idle_settled_until_) return;
  const double dt = now - idle_settled_until_;
  // Every leaf idle-listens between polls; charge the configured fraction of
  // RX power for the elapsed wall time (airtime double-count is negligible
  // at the utilizations of interest, and conservative otherwise).
  const double w = link_.spec().rx_power_w * config_.idle_listen_factor;
  for (auto& ns : stats_.nodes) ns.rx_energy_j += w * dt;
  idle_settled_until_ = now;
  stats_.elapsed_s = now - started_at_;
}

void PollingMac::poll_next() {
  if (!running_) return;
  settle_idle_energy();

  const std::size_t idx = next_node_;
  next_node_ = (next_node_ + 1) % nodes_.size();
  auto& node = nodes_[idx];
  auto& ns = stats_.nodes[idx];

  // Hub poll; the polled leaf receives it (its idle listening already covers
  // the RX window energetically; the poll airtime occupies the medium).
  const double poll_air = link_.frame_time_s(config_.poll_bytes);
  stats_.hub_tx_energy_j += link_.frame_tx_energy_j(config_.poll_bytes);
  stats_.busy_airtime_s += poll_air;

  double reply_air = 0.0;
  if (node.queue.empty()) {
    reply_air = link_.frame_time_s(config_.nothing_bytes);
    ns.tx_energy_j += link_.frame_tx_energy_j(config_.nothing_bytes);
    stats_.hub_rx_energy_j += link_.frame_rx_energy_j(config_.nothing_bytes);
  } else {
    Frame& head = node.queue.front();
    reply_air = link_.frame_time_s(head.payload_bytes);
    ns.tx_energy_j += link_.frame_tx_energy_j(head.payload_bytes);
    stats_.hub_rx_energy_j += link_.frame_rx_energy_j(head.payload_bytes);

    const bool lost = rng_.bernoulli(link_.frame_error_rate(head.payload_bytes));
    if (lost) {
      ++ns.frames_retried;
      if (++node.head_retries > config_.max_retries) {
        ++ns.frames_dropped_arq;
        node.queue.pop_front();
        node.head_retries = 0;
      }
    } else {
      const sim::Time delivered_at = sim_.now() + poll_air + reply_air;
      ++ns.frames_delivered;
      ns.bytes_delivered += head.payload_bytes;
      ns.latency_s.add(delivered_at - head.created_s);
      if (trace_) {
        trace_->emit(delivered_at, "polling", "deliver",
                     ns.name + " bytes=" + std::to_string(head.payload_bytes));
      }
      if (on_delivery_) on_delivery_(head, delivered_at);
      node.queue.pop_front();
      node.head_retries = 0;
    }
  }
  stats_.busy_airtime_s += reply_air;

  sim_.after(poll_air + reply_air, [this] { poll_next(); });
}

}  // namespace iob::comm
