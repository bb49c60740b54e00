// Fault-injection subsystem tests (docs/robustness.md): hand-computed
// brownout/reboot timelines, the Gilbert–Elliott overlay against its
// analytic stationary loss rate, hub crash/restart session recovery, the
// drop-taxonomy invariant, and the fleet grid's fault axis under the byte-identical parallel-vs-serial contract.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "comm/gilbert_elliott.hpp"
#include "comm/tdma.hpp"
#include "comm/wir_link.hpp"
#include "core/fleet.hpp"
#include "core/sweep_runner.hpp"
#include "net/network_sim.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"

namespace iob {
namespace {

// ---- brownout/reboot lifecycle ---------------------------------------------

// Hand-computed energy walk. The node burns 2 mW while powered against a
// deterministic 1 mW harvester (availability 1, sigma 0 -> exactly
// mean * dt per settle) off a 10.8 mJ cell (1e-3 mAh at 3 V), settling
// every 1 s. Off below 30% SoC, reboot at 50% for 1 mJ, zero sleep floor.
// Each settle discharges 2 mJ then credits 1 mJ, and the cell never holds
// less than the per-settle spend, so no discharge clamping muddies the
// walk:
//
//   t (s) | remaining (mJ)          | state
//   ------+-------------------------+---------------------------
//    1..7 | 10.8 - k*(2 - 1)        | on (9.8 ... 3.8)
//     8   | 2.8  (25.9% < 30%)      | off
//  9..10  | 3.8, 4.8                | off (< 50%)
//    11   | 5.8 - 1 (reboot) = 4.8  | on, reboot #1, downtime 3 s
//    12   | 3.8                     | on
//    13   | 2.8  (25.9% < 30%)      | off
//
// At t = 13.5: downtime 3 + 0.5 s, availability 1 - 3.5/13.5, MTTR 3.5/2.
TEST(Brownout, HandComputedTimeline) {
  sim::Simulator sim(1);
  comm::WiRLink wir;
  comm::TdmaBus bus(sim, wir);  // never started: the node burns no comm energy

  net::NodeConfig cfg;
  cfg.name = "bt";
  cfg.sense_power_w = 2e-3;
  cfg.isa_power_w = 0.0;
  cfg.output_rate_bps = 100.0;  // frame period 19.2 s: no traffic in-window
  cfg.battery_mah = 1e-3;       // 10.8 mJ at 3 V
  cfg.settle_period_s = 1.0;
  energy::HarvesterParams h;
  h.mean_power_w = 1e-3;
  h.availability = 1.0;
  h.relative_sigma = 0.0;
  cfg.harvester = h;

  net::Node node(sim, bus, cfg);
  node.enable_brownout(sim::BrownoutPlan{0.3, 0.5, 1e-3, 0.0});
  sim.run_until(13.5);

  EXPECT_FALSE(node.powered());
  EXPECT_EQ(node.reboots(), 1u);
  EXPECT_NEAR(node.downtime_s(13.5), 3.5, 1e-9);
  EXPECT_NEAR(node.availability(13.5), 1.0 - 3.5 / 13.5, 1e-12);
  EXPECT_NEAR(node.mttr_s(13.5), 1.75, 1e-9);
  EXPECT_NEAR(node.battery().remaining_j(), 2.8e-3, 1e-9);
}

TEST(Brownout, PlanValidatesHysteresis) {
  sim::Simulator sim(1);
  comm::WiRLink wir;
  comm::TdmaBus bus(sim, wir);
  net::NodeConfig cfg;
  cfg.name = "bad";
  net::Node node(sim, bus, cfg);
  // on_soc must sit strictly above off_soc.
  EXPECT_THROW(node.enable_brownout(sim::BrownoutPlan{0.5, 0.5, 0.0, 0.0}),
               std::invalid_argument);
}

// The PR's revival fix: a brownout-enabled node comes back once the
// harvester refills the hysteresis band, while the legacy configuration
// (no plan, no harvester) still dies forever — bit-identical default.
TEST(Brownout, NodeRevivesUnderPlanAndLegacyStaysDead) {
  auto stress = [](bool harvested) {
    net::NodeConfig c;
    c.name = "stress";
    c.stream = "stress";
    c.sense_power_w = 8e-6;
    c.isa_power_w = 3e-3;
    c.output_rate_bps = 5e3;
    c.battery_mah = 5e-4;  // 5.4 mJ: drains in seconds at mW load
    c.settle_period_s = 0.1;
    if (harvested) {
      energy::HarvesterParams teg;
      teg.mean_power_w = 1.5e-3;
      teg.availability = 1.0;
      teg.relative_sigma = 0.0;
      c.harvester = teg;
    }
    return c;
  };

  // Recovery-enabled run: the canonical brownout regime duty-cycles.
  net::NetworkConfig nc;
  nc.seed = 11;
  nc.faults = core::make_fault_plan(core::FaultVariant::kBrownout);
  comm::WiRLink wir;
  net::NetworkSim net(wir, nc);
  net.add_node(stress(true));
  const net::NetworkReport report = net.run(8.0);
  const net::NodeReport& r = report.nodes[0];
  EXPECT_GE(r.reboots, 1u);
  EXPECT_GT(r.downtime_s, 0.0);
  EXPECT_GT(r.mttr_s, 0.0);
  EXPECT_LT(r.availability, 1.0);
  EXPECT_GT(r.availability, 0.0);
  EXPECT_GT(r.frames_delivered, 0u);

  // Legacy run: same load, no plan, no harvest -> depleted stays dead and
  // the lifecycle metrics keep their clean-path defaults.
  net::NetworkConfig legacy_cfg;
  legacy_cfg.seed = 11;
  comm::WiRLink wir2;
  net::NetworkSim legacy(wir2, legacy_cfg);
  legacy.add_node(stress(false));
  const net::NetworkReport legacy_report = legacy.run(8.0);
  EXPECT_TRUE(legacy.node(0).battery().depleted());
  EXPECT_FALSE(legacy.node(0).alive());
  EXPECT_EQ(legacy_report.nodes[0].reboots, 0u);
  EXPECT_EQ(legacy_report.nodes[0].availability, 1.0);
  EXPECT_EQ(legacy_report.nodes[0].downtime_s, 0.0);
}

// ---- Gilbert–Elliott channel overlay ---------------------------------------

TEST(GilbertElliott, MatchesAnalyticStationaryRates) {
  const comm::GilbertElliottParams p{0.5, 0.125, 0.5};
  comm::GilbertElliott ge(p, sim::Rng(123));
  EXPECT_NEAR(ge.stationary_bad_fraction(), 0.2, 1e-12);

  const double base_fer = 0.01;
  const int n = 400'000;
  const double dt = 0.01;  // 4000 s: ~6400 sojourn alternations
  double loss_sum = 0.0;
  std::int64_t bad_samples = 0;
  for (int i = 1; i <= n; ++i) {
    loss_sum += ge.loss_probability(i * dt, base_fer);
    if (ge.bad()) ++bad_samples;
  }
  EXPECT_NEAR(static_cast<double>(bad_samples) / n, 0.2, 0.02);
  EXPECT_NEAR(loss_sum / n, ge.expected_loss(base_fer), 0.012);
  // Bad-state loss compounds with (not replaces) the base FER.
  EXPECT_GT(ge.expected_loss(base_fer), base_fer);
}

TEST(GilbertElliott, GoodStateKeepsBaseFer) {
  comm::GilbertElliott ge({1e9, 0.1, 0.9}, sim::Rng(7));  // first sojourn ~forever
  EXPECT_DOUBLE_EQ(ge.loss_probability(1.0, 0.02), 0.02);
  EXPECT_FALSE(ge.bad());
}

// ---- hub crash / restart ----------------------------------------------------

// Periodic flap (up 0.5 s / down 0.2 s) against a staging hub: crashes at
// t = 0.5, 1.2, 1.9 and restarts at 0.7, 1.4, 2.1 inside a 2.5 s run.
// Sessions survive the crash (restored, not re-registered), staged batches
// are attributed as lost, leaves overflow their bounded store-and-retry
// queues while the hub is down, and the drop taxonomy stays a partition.
TEST(HubCrash, SessionsRestoreAndLossIsAttributed) {
  net::NetworkConfig nc;
  nc.seed = 5;
  nc.mac.max_queue_frames = 4;  // tiny store-and-retry buffer
  nc.hub.batch_window = 64;     // rare flushes: crashes catch staged work
  nc.faults.hub_flap = sim::HubFlapPlan{0.5, 0.2, true};
  comm::WiRLink wir;
  net::NetworkSim net(wir, nc);

  net::NodeConfig audio;
  audio.name = "audio";
  audio.stream = "audio";
  audio.sense_power_w = 150e-6;
  audio.output_rate_bps = 64e3;
  audio.frame_bytes = 240;
  audio.slot_weight = 2;
  net.add_node(audio);
  net::SessionConfig kws;
  kws.stream = "audio";
  kws.macs_per_inference = 1'000'000;
  kws.bytes_per_inference = 4'000;
  net.add_session(kws);

  const net::NetworkReport report = net.run(2.5);

  EXPECT_EQ(report.hub_crashes, 3u);
  EXPECT_NEAR(report.hub_downtime_s, 0.6, 1e-9);
  EXPECT_NEAR(report.hub_availability, 1.0 - 0.6 / 2.5, 1e-9);

  const net::SessionStats& st = net.hub().session("audio");
  EXPECT_EQ(st.fault_resyncs, 3u);      // one re-sync per restart
  EXPECT_GE(st.staged_frames_lost, 1u); // crashes drop staged batches
  EXPECT_GT(st.staged_bytes_lost, 0u);
  EXPECT_GE(st.inferences, 1u);         // the pipeline keeps working after

  const net::NodeReport& r = report.nodes[0];
  EXPECT_GT(r.dropped_overflow, 0u);    // store-and-retry buffer overflowed
  // Five-way partition (docs/robustness.md): overflows with the hub *up*
  // are attributed to the clean bucket, not the outage one.
  EXPECT_EQ(r.frames_dropped, r.dropped_arq + r.dropped_fault + r.dropped_overflow +
                                  r.dropped_overflow_clean + r.dropped_shed);
  EXPECT_GT(net.bus().stats().superframes_skipped, 0u);
  EXPECT_GT(r.frames_delivered, 0u);
}

// The taxonomy invariant under every stressor at once.
TEST(Faults, DropTaxonomyPartitionsTotalDrops) {
  net::NetworkConfig nc;
  nc.seed = 17;
  nc.mac.max_queue_frames = 6;
  nc.hub.batch_window = 8;
  nc.faults = core::make_fault_plan(core::FaultVariant::kCombined, 2.0);
  comm::WiRLink wir;
  net::NetworkSim net(wir, nc);
  for (int i = 0; i < 4; ++i) {
    net::NodeConfig c;
    c.name = "leaf-" + std::to_string(i);
    c.stream = c.name;
    c.sense_power_w = 100e-6;
    c.isa_power_w = (i == 0) ? 0.0 : 3e-3;  // three brownout-prone leaves
    c.output_rate_bps = (i == 0) ? 64e3 : 5e3;
    c.battery_mah = (i == 0) ? 1000.0 : 5e-4;
    c.settle_period_s = (i == 0) ? 1.0 : 0.1;
    c.phase_s = 1e-3 * i;
    if (i != 0) {
      energy::HarvesterParams teg;
      teg.mean_power_w = 1.5e-3;
      teg.availability = 1.0;
      c.harvester = teg;
    }
    net.add_node(c);
  }
  const net::NetworkReport report = net.run(8.0);
  std::uint64_t reboots = 0;
  for (const net::NodeReport& r : report.nodes) {
    EXPECT_EQ(r.frames_dropped, r.dropped_arq + r.dropped_fault + r.dropped_overflow +
                                    r.dropped_overflow_clean + r.dropped_shed)
        << r.name;
    reboots += r.reboots;
  }
  EXPECT_GE(reboots, 1u);  // the stress leaves actually duty-cycled
  EXPECT_LT(report.hub_availability, 1.0);
}

// ---- fleet grid fault axis --------------------------------------------------

core::FleetAxes fault_axes() {
  core::FleetAxes axes;
  axes.node_counts = {2};
  core::NodeClassSpec audio;
  audio.base.name = "audio";
  audio.base.sense_power_w = 150e-6;
  audio.base.output_rate_bps = 64e3;
  audio.base.slot_weight = 2;
  audio.share = 1;
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
  stress.share = 1;
  axes.mixes = {core::NodeMix{"audio+stress", {audio, stress}}};
  axes.faults = {core::FaultVariant::kNone, core::FaultVariant::kBrownout,
                 core::FaultVariant::kHubFlap, core::FaultVariant::kBurstLoss,
                 core::FaultVariant::kCombined};
  axes.seeds = {7};
  axes.duration_s = 4.0;
  return axes;
}

TEST(FleetFaults, ParallelRunsAreByteIdenticalAcrossThreadCounts) {
  const core::Fleet fleet(fault_axes());
  EXPECT_EQ(fleet.size(), 5u);
  const std::vector<core::FleetPointResult> results = fleet.run(core::SweepRunner(1));
  const std::string serial = core::fleet_results_csv(results);
  // The brownout regime produced real fault activity to serialize.
  std::uint64_t reboots = 0;
  for (const core::FleetPointResult& r : results) {
    for (const net::NodeReport& n : r.report.nodes) reboots += n.reboots;
  }
  EXPECT_GT(reboots, 0u);
  for (std::size_t threads : {2u, 8u}) {
    const core::SweepRunner runner(threads);
    EXPECT_EQ(serial, core::fleet_results_csv(fleet.run(runner))) << threads << " threads";
  }
}

TEST(FleetFaults, ExpansionNestsFaultsOutsideSeeds) {
  core::FleetAxes axes = fault_axes();
  axes.faults = {core::FaultVariant::kNone, core::FaultVariant::kCombined};
  axes.seeds = {7, 9};
  const std::vector<core::FleetPoint> points = core::Fleet(axes).expand();
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].coord[core::kAxisFault], 0u);
  EXPECT_EQ(points[0].coord[core::kAxisSeed], 0u);
  EXPECT_EQ(points[1].coord[core::kAxisFault], 0u);
  EXPECT_EQ(points[1].coord[core::kAxisSeed], 1u);
  EXPECT_EQ(points[2].coord[core::kAxisFault], 1u);
  EXPECT_EQ(points[2].fault, core::FaultVariant::kCombined);
  EXPECT_EQ(points[3].coord[core::kAxisFault], 1u);
  EXPECT_EQ(points[3].coord[core::kAxisSeed], 1u);
}

TEST(FleetFaults, MakeFaultPlanVariants) {
  EXPECT_FALSE(core::make_fault_plan(core::FaultVariant::kNone).any());
  EXPECT_FALSE(core::make_fault_plan(core::FaultVariant::kNone, 4.0).any());
  const sim::FaultPlan combined = core::make_fault_plan(core::FaultVariant::kCombined);
  EXPECT_TRUE(combined.brownout.has_value());
  EXPECT_TRUE(combined.hub_flap.has_value());
  EXPECT_TRUE(combined.burst_loss.has_value());
  // Intensity shortens the inter-fault gaps, never the outage durations.
  const sim::FaultPlan harsh = core::make_fault_plan(core::FaultVariant::kHubFlap, 4.0);
  const sim::FaultPlan mild = core::make_fault_plan(core::FaultVariant::kHubFlap, 1.0);
  EXPECT_LT(harsh.hub_flap->mean_up_s, mild.hub_flap->mean_up_s);
  EXPECT_DOUBLE_EQ(harsh.hub_flap->mean_down_s, mild.hub_flap->mean_down_s);
}

}  // namespace
}  // namespace iob
