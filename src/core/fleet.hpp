#pragma once
/// \file fleet.hpp
/// Declarative fleet harness: grid sweeps of thousands of independent
/// `net::NetworkSim` points.
///
/// The paper's claim is a *system-level* trade — distributing wearable AI
/// across leaf nodes, a Wi-R body bus and a hub brain pays off across wide
/// operating regimes, not at one hand-picked design point. `FleetAxes`
/// declares those regimes as axes (node count x MAC variant x node-mix x
/// harvesting x bus link x seed); `Fleet` expands them into a flat grid of
/// value-type `FleetPoint` specs, fans the points across a `SweepRunner`
/// (each with an `Rng::fork`-derived seed, so the result vector is
/// byte-identical to a serial run at any thread count), and folds the
/// resulting `NetworkReport`s into per-axis marginal summaries: lifetime
/// percentiles, goodput, drop rate, bus utilization.
///
/// Grid order contract (tests assert it): points enumerate the axes as
/// nested loops in `FleetAxis` order, `node_counts` outermost and `seeds`
/// innermost —
///   for n in node_counts / for m in macs / for x in mixes /
///   for h in harvests / for b in buses / for w in batch_windows /
///   for p in precisions / for f in faults / for l in splits /
///   for i in sir_levels / for o in motion / for s in seeds
/// so `FleetPoint::coord` is the point's mixed-radix digit vector, and
/// `FleetPoint::seed = SweepRunner::point_seed(s, flat_index)`: sibling
/// points never share an RNG stream even when the seed axis holds a single
/// value.
///
/// A `FleetPoint` is self-contained: `run_fleet_point(point)` is a pure
/// function that builds its own link (owned by the `NetworkSim` — no shared
/// `comm::Link` lifetime to manage), its own simulator, runs it, and
/// returns the report. That purity is what makes the fan-out trivially
/// deterministic.

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "comm/link.hpp"
#include "comm/tdma.hpp"
#include "core/stream_sink.hpp"
#include "core/sweep_runner.hpp"
#include "energy/harvester.hpp"
#include "net/network_sim.hpp"
#include "net/session.hpp"
#include "nn/precision.hpp"
#include "phy/body_motion.hpp"
#include "phy/interference.hpp"
#include "sim/fault.hpp"

namespace iob::core {

/// Which body-bus link a point instantiates. Each point constructs and owns
/// its link, so grid points never share mutable or lifetime-coupled state.
/// Note the MAC slot must fit the mix's frame size on the chosen link
/// (`TdmaBus` enforces it): the 1 ms default slot fits 240-byte frames on
/// Wi-R's 4 Mb/s PHY but not on BLE/NFMI/ULP-Wi-R rates — pair slower buses
/// with wider slots or smaller frames.
enum class BusKind { kWiR, kWiRUlp, kBle, kNfmi };

[[nodiscard]] std::string to_string(BusKind kind);

/// Factory for the link a `BusKind` names, with that link's default params.
[[nodiscard]] std::unique_ptr<const comm::Link> make_bus_link(BusKind kind);

/// One leaf class inside a population mix. `base.name` is used as a prefix;
/// node i of a fleet point gets the class at position i mod (sum of shares)
/// in the share-expanded class sequence, name `<prefix>-<i>` and stream
/// `<prefix>-<i>` (unless `base.stream` is set to something other than the
/// `NodeConfig` default, which pins all nodes of the class to one shared
/// stream tag). An optional hub session is registered per node stream (its
/// `stream` field is overwritten).
struct NodeClassSpec {
  net::NodeConfig base;
  unsigned share = 1;
  std::optional<net::SessionConfig> session{};
};

/// A labelled leaf population recipe (one value on the mix axis).
struct NodeMix {
  std::string label;
  std::vector<NodeClassSpec> classes;
};

/// A labelled MAC configuration (one value on the MAC axis).
struct MacVariant {
  std::string label;
  comm::TdmaConfig config{};
};

/// A labelled harvesting profile applied to every node of a point;
/// `std::nullopt` leaves each class's own `base.harvester` in force.
struct HarvestVariant {
  std::string label;
  std::optional<energy::HarvesterParams> harvester{};
};

/// One value on the fleet's fault axis: which canonical fault regime
/// (docs/robustness.md) a point simulates under. `kNone` is the clean path:
/// an empty `sim::FaultPlan`.
enum class FaultVariant { kNone, kBrownout, kHubFlap, kBurstLoss, kCombined };

[[nodiscard]] std::string to_string(FaultVariant variant);

/// The canonical `sim::FaultPlan` behind a `FaultVariant`. `intensity`
/// scales fault *pressure* (>= 1 is harsher): hub crashes arrive
/// `intensity` times as often and burst episodes recur `intensity` times
/// as often; outage/episode durations and the brownout thresholds are
/// intensity-invariant. `kNone` returns an empty plan at any intensity.
[[nodiscard]] sim::FaultPlan make_fault_plan(FaultVariant variant, double intensity = 1.0);

/// One value on the fleet's split-execution axis: how session-bearing node
/// classes split their model between leaf and hub (docs/architecture.md).
/// Only classes whose session carries an executable `net` participate —
/// model-less telemetry classes are untouched. The disabled default runs
/// every model whole on the hub.
struct SplitVariant {
  std::string label = "off";
  bool enabled = false;
  /// Fixed split: the leaf runs `round(leaf_fraction * layer_count)` layers
  /// (clamped to [0, n]) and ships the boundary activation.
  double leaf_fraction = 0.0;
  /// Adaptive re-partitioning: candidates come from the analytic
  /// `partition::CostModel` (leaf silicon below, the point's bus link, the
  /// class's inference rate) and an `AdaptiveSplitController` walks them
  /// along the battery glide path — deterministic, so grids stay
  /// byte-identical across thread counts.
  bool adaptive = false;
  double mission_time_s = 30.0 * 86400.0;  ///< adaptive glide-path target
  double leaf_energy_per_mac_j = 20e-12;   ///< leaf silicon (CostModel default)
};

/// One value on the fleet's interference axis: the co-channel aggressor
/// regime (`phy::InterferenceField`) every node of a point shares. The
/// default "clean" level (no aggressors) installs no interference field.
struct SirLevelVariant {
  std::string label = "clean";
  phy::SirLevel level{};
};

/// One value on the fleet's body-motion axis: the wearer-motion Markov
/// chain (`phy::BodyMotionProcess`) whose path-gain deltas modulate the
/// bus FER over time. The disabled default installs no motion chain.
struct MotionVariant {
  std::string label = "off";
  bool enabled = false;
  phy::BodyMotionParams params{};
};

/// The declarative grid. Every axis must be non-empty; `mixes` has no
/// default because a population recipe is the one axis with no sane
/// universal value.
struct FleetAxes {
  std::vector<int> node_counts{4};
  std::vector<MacVariant> macs{{"tdma-default", {}}};
  std::vector<NodeMix> mixes{};
  std::vector<HarvestVariant> harvests{{"none", std::nullopt}};
  std::vector<BusKind> buses{BusKind::kWiR};
  /// Hub batching axis (`HubConfig::batch_window`): 0 = flush on each
  /// completed window ("per-frame" in the CSV), K >= 1 = one batched flush
  /// every K superframes. Lets grids sweep batched vs unbatched hub
  /// inference.
  std::vector<unsigned> batch_windows{0};
  /// Hub inference precision axis: every session of a point executes (and
  /// is priced) at this `nn::Precision` — f32 hubs vs int8 hubs in one
  /// grid.
  std::vector<nn::Precision> precisions{nn::Precision::kF32};
  /// Fault-regime axis (`make_fault_plan`): which robustness stressor each
  /// point runs under.
  std::vector<FaultVariant> faults{FaultVariant::kNone};
  /// Split-execution axis: leaf/hub model partitioning per point.
  std::vector<SplitVariant> splits{{}};
  /// Interference axis (`phy::SirLevel` per point): co-channel aggressor
  /// population shared by every node.
  std::vector<SirLevelVariant> sir_levels{{}};
  /// Body-motion axis (`phy::BodyMotionParams` per point): the wearer's
  /// activity chain fading the bus.
  std::vector<MotionVariant> motion{{}};
  std::vector<std::uint64_t> seeds{42};
  double duration_s = 5.0;  ///< simulated seconds per point

  /// Number of grid points (product of axis sizes).
  [[nodiscard]] std::size_t size() const;
};

/// Index of each axis inside `FleetPoint::coord`, in nesting order: the
/// expansion loop, the coord digits, the CSV coord column and
/// `FleetSummary::axes` all follow it. A new axis is an entry here in its
/// nesting position, a `FleetAxes` field, a `FleetPoint` field and one line
/// in fleet.cpp's axis table (docs/determinism.md).
enum FleetAxis : std::size_t {
  kAxisNodeCount = 0,
  kAxisMac,
  kAxisMix,
  kAxisHarvest,
  kAxisBus,
  kAxisBatch,
  kAxisPrecision,
  kAxisFault,
  kAxisSplit,
  kAxisSir,
  kAxisMotion,
  kAxisSeed,
  kAxisCount,
};

/// One expanded grid point: a plain value type carrying everything needed
/// to build and run a `NetworkSim`, with no references into the axes.
struct FleetPoint {
  std::size_t index = 0;                       ///< flat grid index
  std::array<std::size_t, kAxisCount> coord{}; ///< per-axis value indices
  int node_count = 1;
  MacVariant mac{};
  NodeMix mix{};
  HarvestVariant harvest{};
  BusKind bus = BusKind::kWiR;
  unsigned batch_window = 0;  ///< HubConfig::batch_window for this point
  nn::Precision precision = nn::Precision::kF32;  ///< session execution precision
  FaultVariant fault = FaultVariant::kNone;  ///< fault regime (make_fault_plan)
  SplitVariant split{};     ///< leaf/hub split-execution recipe
  SirLevelVariant sir{};    ///< co-channel interference regime
  MotionVariant motion{};   ///< wearer body-motion chain
  std::uint64_t seed = 0;   ///< SweepRunner::point_seed(seed_axis_value, index)
  double duration_s = 5.0;
};

/// Build (but do not run) the simulation a point describes. The returned
/// `NetworkSim` owns its link.
[[nodiscard]] std::unique_ptr<net::NetworkSim> build_fleet_point(const FleetPoint& p);

/// Per-point outcome: the full report plus the derived scalars the
/// aggregation consumes.
struct FleetPointResult {
  std::size_t index = 0;
  std::array<std::size_t, kAxisCount> coord{};
  net::NetworkReport report{};
  double drop_rate = 0.0;          ///< dropped / (delivered + dropped), 0 if idle
  double mean_latency_s = 0.0;     ///< mean over nodes of per-node mean latency
  double mean_leaf_power_w = 0.0;
  double min_life_days = 0.0;      ///< weakest node (+inf only if no node ever drains)
  double perpetual_fraction = 0.0; ///< fraction of nodes with life > 1 y (energy::is_perpetual)
  double mean_availability = 1.0;  ///< mean over nodes of powered fraction (1 clean)
};

/// Run one grid point start to finish. Pure: depends only on `p`.
[[nodiscard]] FleetPointResult run_fleet_point(const FleetPoint& p);

/// Header row of the canonical CSV (with trailing newline). Every column is
/// declared once, in fleet.cpp's per-point and per-node field lists, and
/// every row carries every column. The per-point columns come first (`coord`
/// is the `kAxisCount` coord digits joined by ':'); the last header column
/// names the per-node sub-fields joined by ':', and a row carries one such
/// column per node.
[[nodiscard]] std::string fleet_csv_header();

/// Canonical CSV row for one result (with trailing newline, doubles as
/// round-trip-exact %.17g). `fleet_results_csv` and the streaming spill path
/// both serialize through this function, which is what makes
/// concat(shards) == monolithic CSV a byte-level identity.
[[nodiscard]] std::string fleet_result_row(const FleetPointResult& r);

/// Canonical serialization of a result vector (header + one CSV row per
/// point, doubles as round-trip-exact %.17g). Two runs are byte-identical
/// iff these strings are equal — the form the determinism tests compare.
[[nodiscard]] std::string fleet_results_csv(const std::vector<FleetPointResult>& results);

/// Fixed-width binary spill record: the headline per-point scalars, raw
/// little-endian doubles (the host layout — shards are a local cache, not an
/// interchange format). 80 bytes/point, where a CSV row carries every node.
struct FleetStreamRecord {
  std::uint64_t index = 0;
  double drop_rate = 0.0;
  double mean_latency_s = 0.0;
  double mean_leaf_power_w = 0.0;
  double min_life_days = 0.0;
  double perpetual_fraction = 0.0;
  double hub_power_w = 0.0;
  double goodput_bps = 0.0;
  double bus_utilization = 0.0;
  double elapsed_s = 0.0;
};
static_assert(sizeof(FleetStreamRecord) == 80, "spill record layout drifted");

[[nodiscard]] FleetStreamRecord fleet_stream_record(const FleetPointResult& r);

/// Marginal aggregate over one set of points (one axis value, or the whole
/// grid). Lifetime percentiles are taken over every node-lifetime sample in
/// the set (+inf samples sort last, so a mostly-perpetual cell reports +inf
/// percentiles); the remaining metrics are unweighted means over points.
struct AxisCell {
  std::string label;
  std::size_t points = 0;
  double life_p10_days = 0.0;
  double life_p50_days = 0.0;
  double life_p90_days = 0.0;
  /// True when the lifetime percentiles come from the online sketch instead
  /// of the exact retained-sample regime (cells beyond
  /// `OnlineQuantile::kExactLimit` samples) — within `kRelativeError`, and
  /// rendered with a "~" marker by `FleetSummary::to_string`.
  bool life_approx = false;
  double perpetual_fraction = 0.0;
  double mean_goodput_bps = 0.0;
  double mean_drop_rate = 0.0;
  double mean_latency_s = 0.0;
  double mean_bus_utilization = 0.0;
  /// Mean leaf availability over the cell's points (1.0 without faults).
  double mean_availability = 1.0;
};

/// Aggregated view of a fleet run: one overall cell plus, per axis, one
/// cell per axis value (marginalized over every other axis).
struct FleetSummary {
  std::size_t total_points = 0;
  AxisCell overall{};
  /// (axis name, cells in axis-value order), in `FleetAxis` order.
  std::vector<std::pair<std::string, std::vector<AxisCell>>> axes;

  /// Console rendering (one table per axis with >= 2 values).
  [[nodiscard]] std::string to_string() const;
};

/// Linear-interpolation percentile (q in [0,1]) over unsorted samples.
/// Deterministic; +inf-aware (never produces NaN from inf interpolation).
/// Exposed for the hand-computed-aggregate tests.
[[nodiscard]] double percentile(std::vector<double> samples, double q);

/// How `Fleet::run_streaming` batches and spills (docs/scaling.md).
struct FleetStreamConfig {
  /// Points per grid batch. Peak memory is O(2 * batch_points) slots — one
  /// batch executing, one being folded — independent of grid size. A slot
  /// is what a worker keeps of a finished point: its spill bytes (a CSV row
  /// or an 80-byte `FleetStreamRecord`), one double per node and about 200
  /// bytes of coord and fold scalars; never the `NetworkReport`.
  std::size_t batch_points = 4096;
  /// Where per-point rows spill to disk; nullopt folds summaries only.
  std::optional<StreamSinkConfig> spill{};
};

/// Outcome of a streaming run: the folded summary plus spill accounting.
struct FleetStreamResult {
  FleetSummary summary{};
  std::size_t points = 0;          ///< grid points executed
  std::uint64_t spilled_rows = 0;  ///< rows written across shards (0 if no spill)
  std::uint64_t spilled_bytes = 0;
  std::size_t spill_shards = 0;
};

class Fleet {
 public:
  explicit Fleet(FleetAxes axes);

  [[nodiscard]] const FleetAxes& axes() const { return axes_; }
  [[nodiscard]] std::size_t size() const { return axes_.size(); }

  /// The grid point at flat index `i` — a lazy mixed-radix decode of the
  /// order contract (seeds vary fastest, node_counts slowest), identical to
  /// `expand()[i]` without materializing the grid. The reason a million-point
  /// grid costs O(batch) memory, not O(grid).
  [[nodiscard]] FleetPoint point_at(std::size_t index) const;

  /// Expand the axes into the flat, ordered grid (see the order contract in
  /// the file comment). Materializes every point — fine for thousands of
  /// points; streaming runs use `point_at` instead.
  [[nodiscard]] std::vector<FleetPoint> expand() const;

  /// Run every point across `runner`. Deterministic: the result vector is
  /// byte-identical at every thread count.
  [[nodiscard]] std::vector<FleetPointResult> run(const SweepRunner& runner) const;

  /// Run the grid in bounded memory: points execute in `cfg.batch_points`
  /// batches (each fanned across `runner` via `map_async`), per-point rows
  /// spill to disk shards in flat-index order, and per-axis summaries fold
  /// online while the *next* batch executes. The worker that runs a point
  /// also serializes its spill bytes and extracts the fold's inputs, then
  /// drops the report; the calling thread only folds and appends, in
  /// flat-index order. A point that throws on a worker is rethrown here.
  /// Determinism contract: the spilled shards concatenate to exactly
  /// `fleet_results_csv(run(runner))` and the summary equals
  /// `summarize(run(runner))` at any thread count
  /// (docs/scaling.md#how-determinism-survives-streaming).
  [[nodiscard]] FleetStreamResult run_streaming(const SweepRunner& runner,
                                               const FleetStreamConfig& cfg = {}) const;

  /// Fold per-point results into per-axis marginal summaries. Lifetime
  /// percentiles fold through `OnlineQuantile`: exact (bit-identical to the
  /// historical sorted-vector path) up to 512 samples per cell, within its
  /// documented 1% relative-error bound beyond (`AxisCell::life_approx`).
  [[nodiscard]] FleetSummary summarize(const std::vector<FleetPointResult>& results) const;

 private:
  FleetAxes axes_;
};

}  // namespace iob::core
