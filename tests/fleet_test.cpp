// Unit tests for the fleet harness (core::Fleet): exhaustive, ordered grid
// expansion; byte-identical parallel runs at 1/2/8 threads; and marginal
// aggregates checked against hand-computed values on a tiny 2x2 grid.

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "core/fleet.hpp"
#include "core/sweep_runner.hpp"

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

  // The documented nesting: node_counts outermost, seeds innermost.
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
                  const std::array<std::size_t, core::kAxisCount> want{ni, mi, xi, hi,
                                                                       bi, wi, pi, si};
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
                                      std::numeric_limits<double>::quiet_NaN()};
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
  r.coord[core::kAxisSeed] = 7;
  r.coord[core::kAxisFault] = 2;
  r.coord[core::kAxisSir] = 1;
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

  std::string want = "1234,3:0:0:0:0:0:0:7:f2:i1";
  for (const double v : {r.drop_rate, r.mean_latency_s, r.mean_leaf_power_w, r.min_life_days,
                         r.perpetual_fraction, r.report.hub_power_w,
                         r.report.aggregate_goodput_bps, r.report.bus_utilization,
                         r.report.elapsed_s}) {
    want += "," + g17(v);
  }
  want += ",audio-0:" + g17(faulty.average_power_w) + ":" + g17(faulty.comm_power_w) + ":" +
          g17(faulty.projected_life_days) + ":1:18446744073709551615:42:" +
          g17(faulty.mean_latency_s) + ":" + g17(faulty.max_latency_s) + ":flt:3:" +
          g17(faulty.downtime_s) + ":" + g17(faulty.availability) + ":5:6:0:8:0" +
          ":spl:4:90:12345:" + g17(faulty.split_compute_energy_j) + ":2";
  want += ",bio-1:" + g17(clean.average_power_w) + ":" + g17(clean.comm_power_w) + ":" +
          g17(clean.projected_life_days) + ":0:10:0:" + g17(clean.mean_latency_s) + ":" +
          g17(clean.max_latency_s);
  want += ",hubflt:1:" + g17(r.report.hub_downtime_s) + ":" + g17(r.report.hub_availability) +
          "\n";
  EXPECT_EQ(core::fleet_result_row(r), want);
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
