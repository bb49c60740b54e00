#pragma once
/// \file node.hpp
/// A leaf IoB node on the discrete-event simulation: sensor front-end +
/// optional ISA stage + body-bus MAC attachment + battery/harvester. This
/// is the "featherweight, perpetually operating wearable AI node" of the
/// paper's right-hand Fig. 1 architecture, instrumented. The node settles
/// its energy ledger periodically: sensing and ISA power integrate over
/// wall time, communication energy is pulled from the MAC's per-node
/// accounting, harvest energy is credited, and the battery tracks SoC.

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "comm/tdma.hpp"
#include "energy/battery.hpp"
#include "energy/harvester.hpp"
#include "net/degradation.hpp"
#include "net/topology.hpp"
#include "nn/precision.hpp"
#include "partition/adaptive_split.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"
#include "workload/traffic.hpp"

namespace iob::nn {
class Model;
}  // namespace iob::nn

namespace iob::net {

/// Split execution on the leaf (docs/architecture.md): instead of streaming
/// raw sensor frames, the node runs model layers [0, split_at) on-body once
/// per period (charged by MAC count, not timed) and ships the *boundary
/// activation* — serialized at its real wire size
/// (`nn::activation_wire_bytes`), fragmented into bus MTU-sized frames. The
/// hub session resumes at `split_at` (`net::split_session`).
struct LeafSplit {
  const nn::Model* net = nullptr;  ///< borrowed; must outlive the node
  std::size_t split_at = 0;        ///< k: first layer that runs on the hub
  /// Boundary wire format: `kInt8` ships 1 B/element plus the 8-byte
  /// quant-params header, `kF32` ships raw 4 B/element.
  nn::Precision precision = nn::Precision::kInt8;
  double period_s = 1.0;           ///< one sensed window (inference) per period
  /// Leaf silicon efficiency for the prefix MACs (ULP-MCU class; matches
  /// `partition::CostModel` leaf defaults). Each inference charges the
  /// prefix MACs x this to the battery.
  double energy_per_mac_j = 20e-12;
  /// Runtime re-partitioning: when set, every energy settle re-evaluates
  /// the split point against the battery glide path
  /// (`partition::AdaptiveSplitController`); a change re-syncs the hub
  /// session through the resync callback `NetworkSim` wires up.
  std::optional<partition::AdaptiveSplitConfig> adaptive;
};

/// Leaf-venue half of a split inference: the leaf's ledger, reported per
/// node as `NodeReport::split_*` and in fleet telemetry.
struct LeafSplitStats {
  std::size_t split_at = 0;            ///< current k (after re-partitioning)
  std::uint64_t inferences = 0;        ///< prefix executions
  std::uint64_t activation_bytes = 0;  ///< boundary wire bytes enqueued
  double compute_energy_j = 0.0;       ///< prefix MACs x energy/MAC, charged to the battery
  std::uint64_t repartitions = 0;      ///< adaptive split-point changes
};

struct NodeConfig {
  std::string name = "node";
  BodyLocation location = BodyLocation::kChest;
  std::string stream = "data";
  double sense_power_w = 10e-6;       ///< front-end power (from survey model)
  double isa_power_w = 0.0;           ///< in-sensor analytics power
  double output_rate_bps = 6000.0;    ///< traffic after ISA
  std::uint32_t frame_bytes = 240;
  /// Traffic-source start offset (s): real sensors are not phase-locked, so
  /// staggering leaves spreads frame arrivals across superframes (and is
  /// what makes the hub's staged batch size track the batch window rather
  /// than snapping to the population size).
  double phase_s = 0.0;
  unsigned slot_weight = 1;           ///< TDMA slots per superframe (rate-proportional)
  double battery_mah = 1000.0;        ///< Fig. 3 default coin cell
  double battery_v = 3.0;
  std::optional<energy::HarvesterParams> harvester;
  double settle_period_s = 1.0;       ///< energy-ledger update cadence
  /// Split execution: when set the node ships boundary activations instead
  /// of rate-based sensor frames (`output_rate_bps` is ignored for traffic;
  /// `frame_bytes` still caps each bus frame — activations fragment).
  std::optional<LeafSplit> split;
  /// Closed-loop graceful degradation (docs/robustness.md): when set the
  /// node evaluates its channel health at every settle and walks the
  /// degradation ladder. Armed-but-idle (rung 0 throughout) is
  /// bit-identical to unarmed.
  std::optional<DegradationConfig> degradation;
};

class Node {
 public:
  /// Registers with the bus and begins streaming at sim start.
  Node(sim::Simulator& sim, comm::TdmaBus& bus, NodeConfig config);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] const NodeConfig& config() const { return config_; }
  [[nodiscard]] comm::NodeId mac_id() const { return mac_id_; }
  [[nodiscard]] const energy::Battery& battery() const { return battery_; }

  /// Average platform power (W) over the run so far (sense + ISA + comm,
  /// net of nothing — harvesting is accounted on the battery, not here).
  [[nodiscard]] double average_power_w() const;

  /// Communication-only average power (W).
  [[nodiscard]] double comm_power_w() const;

  /// Projected battery life (s) at the observed average power, counting the
  /// harvester's long-run average as offset. +inf when harvest covers load.
  [[nodiscard]] double projected_life_s() const;

  [[nodiscard]] double energy_consumed_j() const { return consumed_j_; }
  [[nodiscard]] double energy_harvested_j() const { return harvested_j_; }
  [[nodiscard]] bool alive() const { return !battery_.depleted(); }

  /// Frame payload period implied by rate and frame size.
  [[nodiscard]] double frame_period_s() const;

  // --- Brownout/reboot lifecycle (docs/robustness.md) ---

  /// Arm the SoC-threshold brownout lifecycle. Must be called before the
  /// simulation runs. Without it the legacy behavior is preserved exactly:
  /// a depleted node never transmits again.
  void enable_brownout(const sim::BrownoutPlan& plan);

  /// False while browned out (core and MAC off, harvester still charging).
  [[nodiscard]] bool powered() const { return powered_; }

  /// Completed brownout->reboot cycles.
  [[nodiscard]] std::uint64_t reboots() const { return reboots_; }

  /// Accumulated powered-off time up to `now`, including a still-open
  /// brownout episode.
  [[nodiscard]] double downtime_s(double now) const;

  /// Fraction of [0, now] the node was powered. 1.0 on the clean path.
  [[nodiscard]] double availability(double now) const;

  /// Mean time to repair: downtime divided by brownout episodes (counting
  /// a still-open one). 0 when no episode ever started.
  [[nodiscard]] double mttr_s(double now) const;

  // --- Split execution (docs/architecture.md) ---

  /// Leaf-venue execution ledger. All-zero unless `NodeConfig::split` is
  /// set.
  [[nodiscard]] const LeafSplitStats& split_stats() const { return split_stats_; }

  /// Install the re-partition callback: invoked as `(stream, new_k)` when
  /// the adaptive controller moves the split point, so the hub session can
  /// re-sync its boundary window. `NetworkSim::add_node` wires this to
  /// `Hub::on_repartition`.
  void set_split_resync(std::function<void(const std::string&, std::size_t)> cb) {
    split_resync_ = std::move(cb);
  }

  // --- Graceful degradation (docs/robustness.md) ---

  /// The node's degradation controller, or nullptr when unarmed.
  [[nodiscard]] const DegradationController* degradation() const {
    return deg_ctrl_ ? &*deg_ctrl_ : nullptr;
  }

 private:
  void settle();
  void update_power_state(double now);
  void apply_split(std::size_t k);
  void run_split_inference(double t);
  void apply_degradation(const DegradationStep& step);
  /// True when the degradation ladder sheds this send event (also counts
  /// it at the MAC). Called once per traffic-source firing.
  [[nodiscard]] bool shed_this_event();

  sim::Simulator& sim_;
  comm::TdmaBus& bus_;
  NodeConfig config_;
  comm::NodeId mac_id_;
  comm::StreamId stream_id_;  ///< `config_.stream`, interned once on the bus
  energy::Battery battery_;
  std::optional<energy::Harvester> harvester_;
  std::unique_ptr<workload::PeriodicSource> source_;
  sim::Rng rng_;

  double last_settle_t_ = 0.0;
  double settled_comm_j_ = 0.0;  ///< MAC energy already charged
  double consumed_j_ = 0.0;
  double harvested_j_ = 0.0;
  std::uint32_t seq_ = 0;

  // Split-execution state (untouched without NodeConfig::split).
  LeafSplitStats split_stats_;
  std::uint64_t prefix_macs_ = 0;   ///< analytic MACs of layers [0, split_at)
  std::uint64_t wire_bytes_ = 0;    ///< serialized boundary activation size
  double settled_split_j_ = 0.0;    ///< split compute already battery-charged
  std::optional<partition::AdaptiveSplitController> split_ctrl_;
  std::function<void(const std::string&, std::size_t)> split_resync_;

  // Degradation-ladder state (untouched without NodeConfig::degradation).
  std::optional<DegradationController> deg_ctrl_;
  std::uint32_t eff_frame_bytes_ = 0;  ///< 0 = configured size (rung-0 identity)
  unsigned shed_modulus_ = 1;
  std::uint64_t shed_counter_ = 0;
  nn::Precision split_precision_ = nn::Precision::kInt8;  ///< current wire format
  bool deg_hub_only_ = false;      ///< ladder forced split retreat to k = 0
  std::size_t deg_saved_split_ = 0;  ///< split point to restore on recovery

  std::optional<sim::BrownoutPlan> brownout_;
  bool powered_ = true;
  std::uint64_t reboots_ = 0;
  double downtime_closed_s_ = 0.0;  ///< completed episodes only
  double powered_off_at_ = 0.0;     ///< start of the open episode
};

}  // namespace iob::net
