#include "net/network_sim.hpp"

#include <cmath>
#include <limits>

#include "common/expect.hpp"
#include "common/units.hpp"
#include "energy/lifetime.hpp"

namespace iob::net {

namespace {

std::unique_ptr<const comm::Link> require_link(std::unique_ptr<const comm::Link> link) {
  IOB_EXPECTS(link != nullptr, "owning NetworkSim needs a non-null link");
  return link;
}

}  // namespace

NetworkSim::NetworkSim(const comm::Link& link, NetworkConfig config)
    : sim_(config.seed),
      link_(link),
      bus_(sim_, link_, config.mac, config.trace ? &trace_ : nullptr),
      faults_(config.faults),
      dynamics_cfg_(config.dynamics) {
  trace_.enable(config.trace);
  hub_ = std::make_unique<Hub>(sim_, bus_, config.hub);
}

NetworkSim::NetworkSim(std::unique_ptr<const comm::Link> link, NetworkConfig config)
    : sim_(config.seed),
      owned_link_(require_link(std::move(link))),
      link_(*owned_link_),
      bus_(sim_, link_, config.mac, config.trace ? &trace_ : nullptr),
      faults_(config.faults),
      dynamics_cfg_(config.dynamics) {
  trace_.enable(config.trace);
  hub_ = std::make_unique<Hub>(sim_, bus_, config.hub);
}

std::size_t NetworkSim::add_node(NodeConfig config) {
  IOB_EXPECTS(!ran_, "cannot add nodes after run()");
  nodes_.push_back(std::make_unique<Node>(sim_, bus_, std::move(config)));
  // Split nodes re-sync their hub session when the adaptive controller
  // moves the boundary (no-op for streams without a registered session).
  Node& n = *nodes_.back();
  if (n.config().split) {
    n.set_split_resync(
        [this](const std::string& stream, std::size_t k) { hub_->on_repartition(stream, k); });
  }
  return nodes_.size() - 1;
}

void NetworkSim::add_session(SessionConfig config) { hub_->add_session(std::move(config)); }

NetworkReport NetworkSim::run(double duration_s) {
  IOB_EXPECTS(!ran_, "run() may be called once");
  IOB_EXPECTS(duration_s > 0, "duration must be positive");
  IOB_EXPECTS(!nodes_.empty(), "network needs at least one node");
  ran_ = true;

  // Pre-size the event queue for the steady-state pending population (see
  // the kEventsBase/kEventsPerNode comment in the header) so warm-up never
  // reallocates the slab or heap.
  sim_.reserve_events(kEventsBase + kEventsPerNode * nodes_.size());

  // Install channel dynamics (interference/motion) before the bus starts so
  // the motion chain's sojourn clock begins at t = 0. A disengaged config
  // installs nothing — the clean path is untouched. The RNG stream forks at
  // `stream_id` off the root (Rng::fork is const), so arming dynamics never
  // perturbs MAC, node, or fault draws.
  if (dynamics_cfg_.any()) {
    dynamics_ = std::make_unique<comm::ChannelDynamics>(
        link_, dynamics_cfg_, sim_.rng().fork(dynamics_cfg_.stream_id));
    bus_.set_channel_dynamics(dynamics_.get());
  }

  // Arm the fault plan before the bus starts so the first hub-flap episode
  // and the channel overlay's sojourn clock both begin at t = 0. An empty
  // plan constructs nothing — the clean path is untouched.
  if (faults_.any()) {
    fault_ = std::make_unique<FaultInjector>(sim_, bus_, *hub_, faults_);
    for (auto& n : nodes_) fault_->attach_node(*n);
  }

  bus_.start(0.0);
  sim_.run_until(duration_s);
  bus_.stop();
  hub_->flush_pending(sim_.now());  // last incomplete batch window still counts

  NetworkReport report;
  report.elapsed_s = sim_.now();
  const auto& mac = bus_.stats();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = *nodes_[i];
    const auto& ms = mac.nodes[n.mac_id() - 1];
    NodeReport r;
    r.name = n.config().name;
    r.average_power_w = n.average_power_w();
    r.comm_power_w = n.comm_power_w();
    const double life = n.projected_life_s();
    r.perpetual = energy::is_perpetual(life);
    r.projected_life_days =
        std::isinf(life) ? std::numeric_limits<double>::infinity() : life / units::day;
    r.frames_delivered = ms.frames_delivered;
    r.frames_dropped = ms.frames_dropped();
    r.mean_latency_s = ms.latency_s.mean();
    r.max_latency_s = ms.latency_s.max();
    r.dropped_arq = ms.frames_dropped_arq;
    r.dropped_fault = ms.frames_dropped_fault;
    r.dropped_overflow = ms.frames_dropped_overflow;
    r.dropped_overflow_clean = ms.frames_dropped_overflow_clean;
    r.dropped_shed = ms.frames_dropped_shed;
    r.availability = n.availability(report.elapsed_s);
    r.downtime_s = n.downtime_s(report.elapsed_s);
    r.mttr_s = n.mttr_s(report.elapsed_s);
    r.reboots = n.reboots();
    if (n.config().split) {
      const LeafSplitStats& ls = n.split_stats();
      r.split_inferences = ls.inferences;
      r.split_activation_bytes = ls.activation_bytes;
      r.split_compute_energy_j = ls.compute_energy_j;
      r.split_repartitions = ls.repartitions;
      r.split_at = static_cast<std::uint64_t>(ls.split_at);
    }
    if (const DegradationController* dc = n.degradation()) {
      r.degradation_step = static_cast<std::uint64_t>(dc->current_index());
      r.degradation_max_step = static_cast<std::uint64_t>(dc->max_step());
      r.degradation_transitions = dc->transitions();
      r.time_degraded_s = dc->time_degraded_s(report.elapsed_s);
      r.degradation_recovery_s = dc->last_recovery_s();
    }
    report.nodes.push_back(std::move(r));
  }
  report.hub_power_w = hub_->average_power_w();
  report.aggregate_goodput_bps = mac.aggregate_goodput_bps();
  report.bus_utilization = mac.utilization();
  report.hub_crashes = hub_->crashes();
  report.hub_downtime_s = hub_->downtime_s(report.elapsed_s);
  report.hub_availability = hub_->availability(report.elapsed_s);
  return report;
}

}  // namespace iob::net
