#pragma once
/// \file network_sim.hpp
/// Turn-key distributed IoB network simulation (paper Sec. V): one body
/// bus (Wi-R by default), one hub, N leaf nodes with their sensing/ISA
/// configurations. Owns the simulator and all actors; produces a per-node
/// and hub report after `run()`. The examples and the T4 scaling bench are
/// thin wrappers over this class.

#include <memory>
#include <string>
#include <vector>

#include "comm/channel_dynamics.hpp"
#include "comm/link.hpp"
#include "comm/tdma.hpp"
#include "net/fault_injector.hpp"
#include "net/hub.hpp"
#include "net/node.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace iob::net {

struct NetworkConfig {
  std::uint64_t seed = 42;
  comm::TdmaConfig mac{};
  HubConfig hub{};
  bool trace = false;
  /// Fault schedule (docs/robustness.md). The default empty plan injects
  /// nothing and keeps every report bit-identical to the pre-fault code.
  sim::FaultPlan faults{};
  /// Continuous channel hostility — SIR interference and body-motion
  /// fading (docs/robustness.md). The default disengaged config installs
  /// nothing and keeps every report bit-identical to the clean channel.
  comm::ChannelDynamicsConfig dynamics{};
};

/// Post-run summary for one node.
struct NodeReport {
  std::string name;
  double average_power_w = 0.0;
  double comm_power_w = 0.0;
  double projected_life_days = 0.0;  ///< +inf encoded as huge for printing
  bool perpetual = false;
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_dropped = 0;
  double mean_latency_s = 0.0;
  double max_latency_s = 0.0;  ///< largest observed delivery latency
  // Drop taxonomy: `frames_dropped` is `comm::MacNodeStats::frames_dropped()`,
  // the sum of these five buckets
  // (`dropped_arq` is the only non-zero one on an unsaturated clean path;
  // `dropped_overflow` is hub-down store-and-retry overflow,
  // `dropped_overflow_clean` is normal-operation saturation, and
  // `dropped_shed` is the degradation ladder's deliberate duty-cycling).
  std::uint64_t dropped_arq = 0;
  std::uint64_t dropped_fault = 0;
  std::uint64_t dropped_overflow = 0;
  std::uint64_t dropped_overflow_clean = 0;
  std::uint64_t dropped_shed = 0;
  // Brownout lifecycle (all trivial without a fault plan).
  double availability = 1.0;  ///< powered fraction of the run
  double downtime_s = 0.0;
  double mttr_s = 0.0;        ///< mean time to repair per brownout episode
  std::uint64_t reboots = 0;
  // Split execution (all zero without NodeConfig::split).
  std::uint64_t split_inferences = 0;       ///< leaf prefix executions
  std::uint64_t split_activation_bytes = 0; ///< boundary wire bytes shipped
  double split_compute_energy_j = 0.0;      ///< leaf prefix energy charged
  std::uint64_t split_repartitions = 0;     ///< adaptive split-point moves
  std::uint64_t split_at = 0;               ///< final split point k
  // Graceful degradation (all zero without NodeConfig::degradation).
  std::uint64_t degradation_step = 0;        ///< final ladder rung
  std::uint64_t degradation_max_step = 0;    ///< deepest rung reached
  std::uint64_t degradation_transitions = 0; ///< ladder moves (both ways)
  double time_degraded_s = 0.0;              ///< seconds on any rung > 0
  double degradation_recovery_s = 0.0;       ///< time of last return to rung 0
};

struct NetworkReport {
  std::vector<NodeReport> nodes;
  double hub_power_w = 0.0;
  double aggregate_goodput_bps = 0.0;
  double bus_utilization = 0.0;
  double elapsed_s = 0.0;
  // Hub crash/restart lifecycle (clean path: 0 crashes, availability 1).
  std::uint64_t hub_crashes = 0;
  double hub_downtime_s = 0.0;
  double hub_availability = 1.0;
};

class NetworkSim {
 public:
  /// \param link body-bus link shared by all nodes (not owned; must outlive
  ///        the simulation)
  NetworkSim(const comm::Link& link, NetworkConfig config = {});

  /// Owning overload: the simulation takes the link with it, so a value-type
  /// point spec (e.g. `core::FleetPoint`) can build a self-contained sim
  /// with no external lifetime to manage. Used by the fleet harness, where
  /// thousands of points each construct their own link.
  explicit NetworkSim(std::unique_ptr<const comm::Link> link, NetworkConfig config = {});

  /// Add a leaf node; returns its index.
  std::size_t add_node(NodeConfig config);

  /// Add a hub inference session.
  void add_session(SessionConfig config);

  /// Run for `duration_s` simulated seconds (can be called once).
  NetworkReport run(double duration_s);

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] Hub& hub() { return *hub_; }
  [[nodiscard]] Node& node(std::size_t i) { return *nodes_.at(i); }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] const comm::TdmaBus& bus() const { return bus_; }
  [[nodiscard]] const sim::TraceSink& trace() const { return trace_; }

 private:
  /// Event-queue warm-up sizing used by `run()` (via `EventQueue::reserve`):
  /// steady state holds ~2 pending events per node (one traffic-source
  /// occurrence + one energy-settle occurrence) plus the superframe chain
  /// and hub/trace bookkeeping, so `kEventsBase + kEventsPerNode * nodes`
  /// pre-sizes the slab/heap with ~2x headroom for ARQ retry and downlink
  /// bursts — the warm-up phase of even a large network never reallocates.
  static constexpr std::size_t kEventsBase = 16;
  static constexpr std::size_t kEventsPerNode = 4;

  sim::Simulator sim_;
  sim::TraceSink trace_;
  std::unique_ptr<const comm::Link> owned_link_;  ///< set by the owning ctor
  const comm::Link& link_;
  comm::TdmaBus bus_;
  std::unique_ptr<Hub> hub_;
  std::vector<std::unique_ptr<Node>> nodes_;
  sim::FaultPlan faults_;
  std::unique_ptr<FaultInjector> fault_;  ///< created by run() when faults_.any()
  comm::ChannelDynamicsConfig dynamics_cfg_;
  std::unique_ptr<comm::ChannelDynamics> dynamics_;  ///< created by run() when any()
  bool ran_ = false;
};

}  // namespace iob::net
