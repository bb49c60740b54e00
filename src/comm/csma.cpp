#include "comm/csma.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/expect.hpp"

namespace iob::comm {

CsmaBus::CsmaBus(sim::Simulator& sim, const Link& link, CsmaConfig config, sim::TraceSink* trace)
    : sim_(sim), link_(link), config_(config), trace_(trace), rng_(sim.rng().fork(0xc5aa)) {
  IOB_EXPECTS(config_.sigma_s > 0, "mini-slot must be positive");
  IOB_EXPECTS(config_.cw_min >= 2 && config_.cw_max >= config_.cw_min,
              "contention window bounds invalid");
}

NodeId CsmaBus::add_node(std::string name) {
  IOB_EXPECTS(!running_, "cannot add nodes while the bus is running");
  NodeState st;
  st.cw = config_.cw_min;
  nodes_.push_back(std::move(st));
  MacNodeStats s;
  s.name = std::move(name);
  stats_.nodes.push_back(std::move(s));
  return static_cast<NodeId>(nodes_.size());
}

void CsmaBus::draw_backoff(NodeState& node) {
  node.backoff =
      static_cast<unsigned>(rng_.uniform_int(0, static_cast<std::int64_t>(node.cw) - 1));
}

bool CsmaBus::enqueue(NodeId node, Frame frame) {
  IOB_EXPECTS(node >= 1 && node <= nodes_.size(), "unknown node id");
  auto& st = nodes_[node - 1];
  if (st.queue.size() >= config_.max_queue_frames) {
    ++stats_.nodes[node - 1].frames_dropped_overflow_clean;
    return false;
  }
  frame.src = node;
  frame.dst = kHubId;
  const bool was_empty = st.queue.empty();
  st.queue.push_back(std::move(frame));
  if (was_empty) {
    st.cw = config_.cw_min;
    st.attempts = 0;
    draw_backoff(st);
  }
  if (running_ && !round_armed_) arm_round();
  return true;
}

bool CsmaBus::backlogged() const {
  return std::any_of(nodes_.begin(), nodes_.end(),
                     [](const NodeState& n) { return !n.queue.empty(); });
}

void CsmaBus::start(sim::Time t0) {
  IOB_EXPECTS(!nodes_.empty(), "CSMA bus needs at least one node");
  running_ = true;
  started_at_ = t0;
  if (backlogged()) {
    sim_.at(t0, [this] {
      round_armed_ = false;
      run_round();
    });
    round_armed_ = true;
  }
}

void CsmaBus::arm_round() {
  round_armed_ = true;
  // Respect an in-flight transmission: contention resumes once the medium
  // frees up.
  const sim::Time when = std::max(sim_.now(), medium_free_at_);
  sim_.at(when, [this] {
    round_armed_ = false;
    run_round();
  });
}

void CsmaBus::run_round() {
  if (!running_ || !backlogged()) return;

  // Find the soonest backoff expiry among backlogged nodes.
  unsigned min_backoff = std::numeric_limits<unsigned>::max();
  for (const auto& n : nodes_) {
    if (!n.queue.empty()) min_backoff = std::min(min_backoff, n.backoff);
  }
  const double wait = static_cast<double>(min_backoff) * config_.sigma_s;

  // All backlogged nodes sense the medium while counting down.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!nodes_[i].queue.empty()) {
      stats_.nodes[i].rx_energy_j += link_.spec().rx_power_w * wait;
    }
  }

  // Winners: backoff expired together.
  std::vector<std::size_t> winners;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].queue.empty()) continue;
    nodes_[i].backoff -= min_backoff;
    if (nodes_[i].backoff == 0) winners.push_back(i);
  }

  double airtime = 0.0;
  for (const auto w : winners) {
    airtime = std::max(airtime, link_.frame_time_s(nodes_[w].queue.front().payload_bytes));
  }
  const sim::Time tx_start = sim_.now() + wait;
  const sim::Time tx_end = tx_start + airtime;
  medium_free_at_ = tx_end;

  if (winners.size() == 1) {
    const std::size_t w = winners.front();
    auto& node = nodes_[w];
    auto& ns = stats_.nodes[w];
    Frame frame = node.queue.front();
    ns.tx_energy_j += link_.frame_tx_energy_j(frame.payload_bytes);
    stats_.hub_rx_energy_j += link_.frame_rx_energy_j(frame.payload_bytes);
    stats_.busy_airtime_s += airtime;

    const bool lost = rng_.bernoulli(link_.frame_error_rate(frame.payload_bytes));
    if (lost) {
      ++ns.frames_retried;
      if (++node.attempts > config_.max_retries) {
        ++ns.frames_dropped_arq;
        node.queue.pop_front();
        node.attempts = 0;
        node.cw = config_.cw_min;
      }
    } else {
      ++ns.frames_delivered;
      ns.bytes_delivered += frame.payload_bytes;
      ns.latency_s.add(tx_end - frame.created_s);
      if (trace_) {
        trace_->emit(tx_end, "csma", "deliver",
                     ns.name + " bytes=" + std::to_string(frame.payload_bytes));
      }
      node.queue.pop_front();
      node.attempts = 0;
      node.cw = config_.cw_min;
      if (on_delivery_) {
        sim_.at(tx_end, [this, frame, tx_end] { on_delivery_(frame, tx_end); });
      }
    }
    if (!node.queue.empty()) draw_backoff(node);
  } else {
    // Collision: every winner pays its TX, the medium is wasted for the
    // longest frame, windows double.
    ++collisions_;
    stats_.busy_airtime_s += airtime;
    for (const auto w : winners) {
      auto& node = nodes_[w];
      auto& ns = stats_.nodes[w];
      ns.tx_energy_j += link_.frame_tx_energy_j(node.queue.front().payload_bytes);
      ++ns.frames_retried;
      if (++node.attempts > config_.max_retries) {
        ++ns.frames_dropped_arq;
        node.queue.pop_front();
        node.attempts = 0;
        node.cw = config_.cw_min;
        if (!node.queue.empty()) draw_backoff(node);
        continue;
      }
      node.cw = std::min(node.cw * 2, config_.cw_max);
      draw_backoff(node);
    }
    if (trace_) trace_->emit(tx_end, "csma", "collision", std::to_string(winners.size()));
  }

  // Non-winners sense the busy medium through the transmission.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (std::find(winners.begin(), winners.end(), i) == winners.end() &&
        !nodes_[i].queue.empty()) {
      stats_.nodes[i].rx_energy_j += link_.spec().rx_power_w * airtime;
    }
  }

  stats_.elapsed_s = tx_end - started_at_;
  if (backlogged()) {
    round_armed_ = true;
    sim_.at(tx_end, [this] {
      round_armed_ = false;
      run_round();
    });
  }
}

}  // namespace iob::comm
