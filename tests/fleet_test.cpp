// Unit tests for the fleet harness (core::Fleet): exhaustive, ordered grid
// expansion; byte-identical parallel runs at 1/2/8 threads; and marginal
// aggregates checked against hand-computed values on a tiny 2x2 grid.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/fleet.hpp"
#include "core/sweep_runner.hpp"
#include "nn/model_zoo.hpp"
#include "phy/body_motion.hpp"

namespace iob {
namespace {

core::NodeMix tiny_mix() {
  core::NodeClassSpec audio;
  audio.base.name = "audio";
  audio.base.sense_power_w = 150e-6;
  audio.base.output_rate_bps = 64e3;
  audio.base.slot_weight = 2;
  audio.share = 1;
  core::NodeClassSpec bio;
  bio.base.name = "bio";
  bio.base.sense_power_w = 8e-6;
  bio.base.output_rate_bps = 5e3;
  bio.share = 3;
  return core::NodeMix{"tiny", {audio, bio}};
}

core::FleetAxes small_axes() {
  core::FleetAxes axes;
  axes.node_counts = {2, 3};
  comm::TdmaConfig short_slot;
  short_slot.slot_s = 600e-6;
  axes.macs = {{"slot-1ms", {}}, {"slot-600us", short_slot}};
  axes.mixes = {tiny_mix()};
  energy::HarvesterParams pv;
  pv.mean_power_w = 50e-6;
  axes.harvests = {{"none", std::nullopt}, {"pv", pv}};
  axes.buses = {core::BusKind::kWiR};
  axes.batch_windows = {0, 1};
  axes.precisions = {nn::Precision::kF32, nn::Precision::kInt8};
  axes.seeds = {7, 9};
  axes.duration_s = 0.5;
  return axes;
}

// ---- grid expansion ---------------------------------------------------------

TEST(Fleet, ExpansionIsExhaustiveAndOrdered) {
  const core::FleetAxes axes = small_axes();
  const core::Fleet fleet(axes);
  EXPECT_EQ(fleet.size(), 2u * 2u * 1u * 2u * 1u * 2u * 2u * 2u);

  const std::vector<core::FleetPoint> points = fleet.expand();
  ASSERT_EQ(points.size(), fleet.size());

  // The documented nesting: node_counts outermost, seeds innermost. The
  // fault, split, SIR and motion axes are singletons, so their digits
  // (between precision and seed) stay 0.
  std::size_t idx = 0;
  for (std::size_t ni = 0; ni < axes.node_counts.size(); ++ni) {
    for (std::size_t mi = 0; mi < axes.macs.size(); ++mi) {
      for (std::size_t xi = 0; xi < axes.mixes.size(); ++xi) {
        for (std::size_t hi = 0; hi < axes.harvests.size(); ++hi) {
          for (std::size_t bi = 0; bi < axes.buses.size(); ++bi) {
            for (std::size_t wi = 0; wi < axes.batch_windows.size(); ++wi) {
              for (std::size_t pi = 0; pi < axes.precisions.size(); ++pi) {
                for (std::size_t si = 0; si < axes.seeds.size(); ++si) {
                  const core::FleetPoint& p = points[idx];
                  EXPECT_EQ(p.index, idx);
                  const std::array<std::size_t, core::kAxisCount> want{
                      ni, mi, xi, hi, bi, wi, pi, 0, 0, 0, 0, si};
                  EXPECT_EQ(p.coord, want);
                  // Every field resolves to the axis value it names.
                  EXPECT_EQ(p.node_count, axes.node_counts[ni]);
                  EXPECT_EQ(p.mac.label, axes.macs[mi].label);
                  EXPECT_EQ(p.mac.config.slot_s, axes.macs[mi].config.slot_s);
                  EXPECT_EQ(p.mix.label, axes.mixes[xi].label);
                  EXPECT_EQ(p.harvest.label, axes.harvests[hi].label);
                  EXPECT_EQ(p.harvest.harvester.has_value(),
                            axes.harvests[hi].harvester.has_value());
                  EXPECT_EQ(p.bus, axes.buses[bi]);
                  EXPECT_EQ(p.batch_window, axes.batch_windows[wi]);
                  EXPECT_EQ(p.precision, axes.precisions[pi]);
                  EXPECT_EQ(p.seed, core::SweepRunner::point_seed(axes.seeds[si], idx));
                  EXPECT_EQ(p.duration_s, axes.duration_s);
                  ++idx;
                }
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(idx, points.size());
}

TEST(Fleet, NodeClassAssignmentIsShareWeightedRoundRobin) {
  core::FleetAxes axes = small_axes();
  core::FleetPoint p = core::Fleet(axes).expand().front();
  p.node_count = 8;
  const auto sim = core::build_fleet_point(p);
  // tiny_mix: shares audio=1, bio=3 -> expanded sequence [audio, bio, bio, bio].
  for (int i = 0; i < 8; ++i) {
    const net::NodeConfig& cfg = sim->node(static_cast<std::size_t>(i)).config();
    const bool audio = (i % 4) == 0;
    EXPECT_EQ(cfg.name, (audio ? "audio-" : "bio-") + std::to_string(i));
    EXPECT_EQ(cfg.stream, cfg.name);  // empty base stream -> per-node stream
    EXPECT_EQ(cfg.slot_weight, audio ? 2u : 1u);
  }
}

TEST(Fleet, HarvestAxisOverridesNodeHarvester) {
  const core::FleetAxes axes = small_axes();
  const std::vector<core::FleetPoint> points = core::Fleet(axes).expand();
  // coord[kAxisHarvest] == 0 -> "none" (mix default, unset); == 1 -> pv.
  for (const auto& p : points) {
    const auto sim = core::build_fleet_point(p);
    const net::NodeConfig& cfg = sim->node(0).config();
    if (p.coord[core::kAxisHarvest] == 0) {
      EXPECT_FALSE(cfg.harvester.has_value());
    } else {
      ASSERT_TRUE(cfg.harvester.has_value());
      EXPECT_DOUBLE_EQ(cfg.harvester->mean_power_w, 50e-6);
    }
  }
}

TEST(Fleet, RejectsEmptyAxes) {
  core::FleetAxes axes = small_axes();
  axes.mixes.clear();
  EXPECT_THROW(core::Fleet{axes}, std::invalid_argument);
  axes = small_axes();
  axes.seeds.clear();
  EXPECT_THROW(core::Fleet{axes}, std::invalid_argument);
  axes = small_axes();
  axes.node_counts = {0};
  EXPECT_THROW(core::Fleet{axes}, std::invalid_argument);
  axes = small_axes();
  axes.batch_windows.clear();
  EXPECT_THROW(core::Fleet{axes}, std::invalid_argument);
  axes = small_axes();
  axes.precisions.clear();
  EXPECT_THROW(core::Fleet{axes}, std::invalid_argument);
  axes = small_axes();
  axes.motion.clear();
  EXPECT_THROW(core::Fleet{axes}, std::invalid_argument);
}

TEST(Fleet, BatchWindowReachesTheHubConfig) {
  core::FleetAxes axes = small_axes();
  axes.batch_windows = {3};
  const core::FleetPoint p = core::Fleet(axes).expand().front();
  EXPECT_EQ(p.batch_window, 3u);
  const std::unique_ptr<net::NetworkSim> sim = core::build_fleet_point(p);
  EXPECT_EQ(sim->hub().config().batch_window, 3u);
}

// ---- determinism ------------------------------------------------------------

TEST(Fleet, ParallelRunByteIdenticalToSerialAt1_2_8Threads) {
  const core::Fleet fleet(small_axes());
  const core::SweepRunner serial(1);
  const std::string reference = core::fleet_results_csv(fleet.run(serial));
  EXPECT_NE(reference.find('\n'), std::string::npos);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const core::SweepRunner runner(threads);
    const std::string parallel = core::fleet_results_csv(fleet.run(runner));
    // Byte-identical canonical serialization (doubles at %.17g round-trip
    // exactly, so equal strings == equal bits).
    EXPECT_EQ(reference, parallel) << "thread count " << threads;
  }
}

TEST(Fleet, RunMatchesPointwiseSerialExecution) {
  const core::Fleet fleet(small_axes());
  const core::SweepRunner runner(4);
  const std::vector<core::FleetPointResult> fanned = fleet.run(runner);
  std::vector<core::FleetPointResult> pointwise;
  for (const core::FleetPoint& p : fleet.expand()) {
    pointwise.push_back(core::run_fleet_point(p));
  }
  EXPECT_EQ(core::fleet_results_csv(fanned), core::fleet_results_csv(pointwise));
}

// ---- aggregation ------------------------------------------------------------

TEST(Fleet, PercentileMatchesHandComputedValues) {
  EXPECT_DOUBLE_EQ(core::percentile({4.0, 1.0, 3.0, 2.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(core::percentile({4.0, 1.0, 3.0, 2.0}, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(core::percentile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(core::percentile({1.0, 2.0}, 0.25), 1.25);
  EXPECT_DOUBLE_EQ(core::percentile({5.0}, 0.9), 5.0);
  // inf-aware: interpolation toward +inf is +inf, not NaN.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(std::isinf(core::percentile({1.0, inf}, 0.5)));
  EXPECT_DOUBLE_EQ(core::percentile({1.0, inf}, 0.0), 1.0);
  EXPECT_TRUE(std::isinf(core::percentile({inf, inf}, 0.5)));
}

TEST(Fleet, SummaryMatchesHandComputedAggregatesOn2x2Grid) {
  // 2x2 grid: node_counts {1, 2} x seeds {7, 9}; all other axes singleton.
  core::FleetAxes axes;
  axes.node_counts = {1, 2};
  axes.mixes = {tiny_mix()};
  axes.seeds = {7, 9};
  axes.duration_s = 0.5;
  const core::Fleet fleet(axes);

  const core::SweepRunner runner(1);
  const std::vector<core::FleetPointResult> results = fleet.run(runner);
  ASSERT_EQ(results.size(), 4u);
  const core::FleetSummary summary = fleet.summarize(results);
  EXPECT_EQ(summary.total_points, 4u);

  // Hand-compute the node-count marginals from the per-point reports.
  ASSERT_EQ(summary.axes.size(), core::kAxisCount);
  const auto& [axis_name, cells] = summary.axes[core::kAxisNodeCount];
  EXPECT_EQ(axis_name, "node count");
  ASSERT_EQ(cells.size(), 2u);

  for (std::size_t v = 0; v < 2; ++v) {
    // Cell v aggregates the two points with coord[node_count] == v.
    std::vector<const core::FleetPointResult*> pts;
    for (const auto& r : results) {
      if (r.coord[core::kAxisNodeCount] == v) pts.push_back(&r);
    }
    ASSERT_EQ(pts.size(), 2u);
    const core::AxisCell& cell = cells[v];
    EXPECT_EQ(cell.label, "n=" + std::to_string(axes.node_counts[v]));
    EXPECT_EQ(cell.points, 2u);

    double goodput = 0.0, drop = 0.0, latency = 0.0, util = 0.0;
    std::vector<double> lifetimes;
    double perpetual = 0.0, nodes = 0.0;
    for (const auto* r : pts) {
      goodput += r->report.aggregate_goodput_bps;
      drop += r->drop_rate;
      latency += r->mean_latency_s;
      util += r->report.bus_utilization;
      for (const auto& n : r->report.nodes) {
        lifetimes.push_back(n.projected_life_days);
        if (n.perpetual) perpetual += 1.0;
        nodes += 1.0;
      }
    }
    EXPECT_DOUBLE_EQ(cell.mean_goodput_bps, goodput / 2.0);
    EXPECT_DOUBLE_EQ(cell.mean_drop_rate, drop / 2.0);
    EXPECT_DOUBLE_EQ(cell.mean_latency_s, latency / 2.0);
    EXPECT_DOUBLE_EQ(cell.mean_bus_utilization, util / 2.0);
    EXPECT_DOUBLE_EQ(cell.perpetual_fraction, perpetual / nodes);
    EXPECT_DOUBLE_EQ(cell.life_p10_days, core::percentile(lifetimes, 0.10));
    EXPECT_DOUBLE_EQ(cell.life_p50_days, core::percentile(lifetimes, 0.50));
    EXPECT_DOUBLE_EQ(cell.life_p90_days, core::percentile(lifetimes, 0.90));
    // The simulations produced actual traffic.
    EXPECT_GT(cell.mean_goodput_bps, 0.0);
    EXPECT_GT(cell.mean_bus_utilization, 0.0);
  }

  // The overall cell covers every point once.
  EXPECT_EQ(summary.overall.points, 4u);
  double goodput_all = 0.0;
  for (const auto& r : results) goodput_all += r.report.aggregate_goodput_bps;
  EXPECT_DOUBLE_EQ(summary.overall.mean_goodput_bps, goodput_all / 4.0);
}

// ---- owning-link NetworkSim -------------------------------------------------

// The canonical row writes every double exactly as printf's "%.17g" would.
// The reference row is assembled here with snprintf, independently of the
// row writer, so a formatter that drifts from "%.17g" (e.g. shortest
// round-trip output) fails even though same-build run comparisons pass.
// The values straddle the writer's whole-number fast path: ±0, ±1 and
// 1e15 - 1 take it, while 1e15 + 1, 0.5, the smallest denormal, DBL_MAX
// and ±inf take the general conversion.
TEST(Fleet, ResultRowFormatsDoublesLikePrintf17g) {
  const std::vector<double> values = {0.1,
                                      2.0 / 3,
                                      -0.0,
                                      5e-324,
                                      2.2250738585072014e-308,
                                      1e-5,
                                      1e16,
                                      1e17,
                                      DBL_MAX,
                                      std::numeric_limits<double>::infinity(),
                                      std::numeric_limits<double>::quiet_NaN(),
                                      0.0,
                                      1.0,
                                      -1.0,
                                      1e15 - 1,
                                      1e15 + 1,
                                      0.5,
                                      -std::numeric_limits<double>::infinity()};
  std::size_t next = 0;
  const auto take = [&] { return values[next++ % values.size()]; };
  const auto g17 = [](double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };

  core::FleetPointResult r;
  r.index = 1234;
  r.coord[core::kAxisNodeCount] = 3;
  r.coord[core::kAxisFault] = 2;
  r.coord[core::kAxisSir] = 1;
  r.coord[core::kAxisSeed] = 7;
  r.drop_rate = take();
  r.mean_latency_s = take();
  r.mean_leaf_power_w = take();
  r.min_life_days = take();
  r.perpetual_fraction = take();
  r.report.hub_power_w = take();
  r.report.aggregate_goodput_bps = take();
  r.report.bus_utilization = take();
  r.report.elapsed_s = take();
  net::NodeReport faulty;
  faulty.name = "audio-0";
  faulty.average_power_w = take();
  faulty.comm_power_w = take();
  faulty.projected_life_days = take();
  faulty.perpetual = true;
  faulty.frames_delivered = 18446744073709551615ull;
  faulty.frames_dropped = 42;
  faulty.mean_latency_s = take();
  faulty.max_latency_s = take();
  faulty.reboots = 3;
  faulty.downtime_s = take();
  faulty.availability = take();
  faulty.dropped_arq = 5;
  faulty.dropped_fault = 6;
  faulty.dropped_overflow = 0;
  faulty.dropped_overflow_clean = 8;
  faulty.split_at = 4;
  faulty.split_inferences = 90;
  faulty.split_activation_bytes = 12345;
  faulty.split_compute_energy_j = take();
  faulty.split_repartitions = 2;
  net::NodeReport clean;
  clean.name = "bio-1";
  clean.average_power_w = take();
  clean.comm_power_w = take();
  clean.projected_life_days = take();
  clean.frames_delivered = 10;
  clean.mean_latency_s = take();
  clean.max_latency_s = take();
  r.report.nodes = {faulty, clean};
  r.report.hub_crashes = 1;
  r.report.hub_downtime_s = take();
  r.report.hub_availability = take();
  ASSERT_GE(next, values.size());  // every value reaches the row

  // Every column in every row: the coord carries all 12 digits, the hub's
  // fault columns sit before the nodes, and the clean node carries its
  // zero fault and split sub-fields.
  std::string want = "1234,3:0:0:0:0:0:0:2:0:1:0:7";
  for (const double v : {r.drop_rate, r.mean_latency_s, r.mean_leaf_power_w, r.min_life_days,
                         r.perpetual_fraction, r.report.hub_power_w,
                         r.report.aggregate_goodput_bps, r.report.bus_utilization,
                         r.report.elapsed_s}) {
    want += "," + g17(v);
  }
  want += ",1," + g17(r.report.hub_downtime_s) + "," + g17(r.report.hub_availability);
  want += ",audio-0:" + g17(faulty.average_power_w) + ":" + g17(faulty.comm_power_w) + ":" +
          g17(faulty.projected_life_days) + ":1:18446744073709551615:42:" +
          g17(faulty.mean_latency_s) + ":" + g17(faulty.max_latency_s) + ":3:" +
          g17(faulty.downtime_s) + ":" + g17(faulty.availability) + ":5:6:0:8:0" +
          ":4:90:12345:" + g17(faulty.split_compute_energy_j) + ":2";
  want += ",bio-1:" + g17(clean.average_power_w) + ":" + g17(clean.comm_power_w) + ":" +
          g17(clean.projected_life_days) + ":0:10:0:" + g17(clean.mean_latency_s) + ":" +
          g17(clean.max_latency_s) + ":0:" + g17(clean.downtime_s) + ":" +
          g17(clean.availability) + ":0:0:0:0:0" + ":0:0:0:" +
          g17(clean.split_compute_energy_j) + ":0\n";
  EXPECT_EQ(core::fleet_result_row(r), want);
}

std::vector<std::string> split_on(const std::string& s, char sep) {
  std::vector<std::string> out(1);
  for (const char c : s) {
    if (c == sep) {
      out.emplace_back();
    } else {
      out.back() += c;
    }
  }
  return out;
}

/// A grid with every optional axis active: faults, splits, SIR and motion,
/// two values each. The audio class runs a KWS session that the split axis
/// partitions; the stress class browns out under the fault regime.
core::FleetAxes all_axes_active(const nn::Model& kws) {
  core::NodeClassSpec audio;
  audio.base.name = "audio";
  audio.base.sense_power_w = 150e-6;
  audio.base.output_rate_bps = 64e3;
  audio.base.slot_weight = 2;
  net::SessionConfig session;
  session.macs_per_inference = kws.total_macs();
  session.bytes_per_inference = 2'000;
  session.model = "kws-dscnn";
  session.weight_bytes = kws.total_params();
  session.net = &kws;
  audio.session = session;
  core::NodeClassSpec stress;
  stress.base.name = "stress";
  stress.base.sense_power_w = 8e-6;
  stress.base.isa_power_w = 3e-3;
  stress.base.output_rate_bps = 5e3;
  stress.base.battery_mah = 5e-4;
  stress.base.settle_period_s = 0.1;
  energy::HarvesterParams teg;
  teg.mean_power_w = 1.5e-3;
  teg.availability = 1.0;
  teg.relative_sigma = 0.0;
  stress.base.harvester = teg;

  core::FleetAxes axes;
  axes.node_counts = {2};
  axes.mixes = {{"audio+stress", {audio, stress}}};
  axes.faults = {core::FaultVariant::kNone, core::FaultVariant::kCombined};
  core::SplitVariant half;
  half.label = "half";
  half.enabled = true;
  half.leaf_fraction = 0.5;
  axes.splits = {{}, half};
  axes.sir_levels = {{}, {"gym", {2, 1.0, -5.3, 20.0}}};
  axes.motion = {{}, {"running", true, phy::running_profile()}};
  axes.seeds = {7};
  axes.duration_s = 4.0;
  return axes;
}

// Every row carries exactly the columns the header names, per-node
// sub-fields included, whichever axes are active. Each active axis shows in
// its coord digit; the fault and split axes also drive the node (and hub)
// columns that carry their telemetry, zero on points off those axes.
TEST(Fleet, EveryRowCarriesEveryHeaderColumnWithAllAxesActive) {
  const nn::Model kws = nn::make_kws_dscnn();
  const core::Fleet fleet(all_axes_active(kws));
  ASSERT_EQ(fleet.size(), 16u);
  const std::vector<core::FleetPointResult> results = fleet.run(core::SweepRunner(1));

  const std::string header = core::fleet_csv_header();
  ASSERT_EQ(header.back(), '\n');
  const std::vector<std::string> columns = split_on(header.substr(0, header.size() - 1), ',');
  const std::size_t point_columns = columns.size() - 1;
  const std::vector<std::string> node_fields = split_on(columns.back(), ':');
  const auto column = [](const std::vector<std::string>& names, const std::string& name) {
    const auto it = std::find(names.begin(), names.end(), name);
    EXPECT_NE(it, names.end()) << name;
    return static_cast<std::size_t>(it - names.begin());
  };
  const std::size_t coord_col = column(columns, "coord");
  const std::size_t hub_crashes_col = column(columns, "hub_crashes");
  const std::size_t reboots = column(node_fields, "reboots");
  const std::size_t downtime = column(node_fields, "downtime_s");
  const std::size_t dropped_fault = column(node_fields, "dropped_fault");
  const std::size_t split_inferences = column(node_fields, "split_inferences");

  std::istringstream csv(core::fleet_results_csv(results));
  std::string line;
  ASSERT_TRUE(std::getline(csv, line));
  EXPECT_EQ(line + "\n", header);
  std::array<std::array<bool, 2>, core::kAxisCount> seen{};
  for (const core::FleetPointResult& r : results) {
    ASSERT_TRUE(std::getline(csv, line));
    const std::vector<std::string> cols = split_on(line, ',');
    ASSERT_EQ(cols.size(), point_columns + r.report.nodes.size()) << line;
    const std::vector<std::string> coord = split_on(cols[coord_col], ':');
    ASSERT_EQ(coord.size(), core::kAxisCount);
    for (std::size_t a = 0; a < core::kAxisCount; ++a) {
      EXPECT_EQ(coord[a], std::to_string(r.coord[a]));
      if (r.coord[a] < 2) seen[a][r.coord[a]] = true;
    }
    bool fault_telemetry = cols[hub_crashes_col] != "0";
    bool split_telemetry = false;
    for (std::size_t k = 0; k < r.report.nodes.size(); ++k) {
      const std::vector<std::string> fields = split_on(cols[point_columns + k], ':');
      ASSERT_EQ(fields.size(), node_fields.size()) << cols[point_columns + k];
      EXPECT_EQ(fields[0], r.report.nodes[k].name);
      fault_telemetry = fault_telemetry || fields[reboots] != "0" || fields[downtime] != "0" ||
                        fields[dropped_fault] != "0";
      split_telemetry = split_telemetry || fields[split_inferences] != "0";
    }
    EXPECT_EQ(fault_telemetry, r.coord[core::kAxisFault] != 0) << line;
    EXPECT_EQ(split_telemetry, r.coord[core::kAxisSplit] != 0) << line;
  }
  EXPECT_FALSE(std::getline(csv, line));
  for (const core::FleetAxis a :
       {core::kAxisFault, core::kAxisSplit, core::kAxisSir, core::kAxisMotion}) {
    EXPECT_TRUE(seen[a][0] && seen[a][1]) << "axis " << a;
  }
}

TEST(Fleet, PointsOwnTheirLinksAndOutliveTheFactoryScope) {
  // Build the sim inside a scope that would have destroyed a shared link;
  // the owning ctor keeps the link alive inside the NetworkSim.
  std::unique_ptr<net::NetworkSim> sim;
  {
    core::FleetAxes axes = small_axes();
    const core::FleetPoint p = core::Fleet(axes).expand().front();
    sim = core::build_fleet_point(p);
  }
  ASSERT_NE(sim, nullptr);
  EXPECT_EQ(sim->node_count(), 2u);
  const net::NetworkReport rep = sim->run(0.25);
  EXPECT_EQ(rep.nodes.size(), 2u);
  EXPECT_GT(rep.aggregate_goodput_bps, 0.0);
}

}  // namespace
}  // namespace iob
