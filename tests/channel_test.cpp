// Hostile-channel and graceful-degradation tests (docs/robustness.md):
// hand-computed body-motion traces, interference-field analytics against
// the phy primitives, the degradation ladder's hysteresis/dwell discipline,
// the clean-path queue-overflow taxonomy bucket, MAC slot auto-sizing, the
// armed-but-idle bit-identity contract, and the fleet grid's SIR/motion
// axes under the byte-identical parallel-vs-serial contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/ble_link.hpp"
#include "comm/channel_dynamics.hpp"
#include "comm/tdma.hpp"
#include "comm/wir_link.hpp"
#include "common/units.hpp"
#include "core/fleet.hpp"
#include "core/sweep_runner.hpp"
#include "net/degradation.hpp"
#include "net/device_library.hpp"
#include "net/network_sim.hpp"
#include "phy/body_motion.hpp"
#include "phy/interference.hpp"
#include "phy/modulation.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace iob {
namespace {

// ---- body-motion process ----------------------------------------------------

/// A two-state still<->occlusion chain with fixed sojourns: still dwells
/// 2 s, occlusion 0.5 s, each state's only successor is the other.
phy::BodyMotionParams two_state_chain() {
  phy::BodyMotionParams p;
  p.deterministic_sojourns = true;
  p.initial = phy::MotionState::kStill;
  auto& still = p.states[static_cast<std::size_t>(phy::MotionState::kStill)];
  still.mean_sojourn_s = 2.0;
  still.gain_delta_db = 0.0;
  still.next = {0.0, 0.0, 0.0, 1.0};
  auto& occl = p.states[static_cast<std::size_t>(phy::MotionState::kOcclusion)];
  occl.mean_sojourn_s = 0.5;
  occl.gain_delta_db = -18.0;
  occl.next = {1.0, 0.0, 0.0, 0.0};
  for (phy::MotionState s : {phy::MotionState::kWalk, phy::MotionState::kRun}) {
    auto& gait = p.states[static_cast<std::size_t>(s)];
    gait.mean_sojourn_s = 1.0;
    gait.next = {1.0, 0.0, 0.0, 0.0};
  }
  return p;
}

// Hand-computed trace: sojourns alternate 2.0 / 0.5, so the timeline is
// still [0,2), occl [2,2.5), still [2.5,4.5), occl [4.5,5), still [5,7),
// occl [7,7.5). At t = 7.25 five transitions have completed and the
// completed-sojourn occupancy is still 6.0 s / occlusion 1.0 s (the open
// occlusion sojourn is excluded by contract).
TEST(BodyMotion, TwoStateDeterministicTraceIsExact) {
  phy::BodyMotionProcess proc(two_state_chain(), sim::Rng(7));
  // still is 0 dB and occlusion -18 dB, so the gain delta names the state.
  EXPECT_DOUBLE_EQ(proc.gain_delta_db(0.0), 0.0);
  EXPECT_DOUBLE_EQ(proc.gain_delta_db(1.999), 0.0);
  EXPECT_DOUBLE_EQ(proc.gain_delta_db(2.0), 0.0);  // end-exclusive dwell
  EXPECT_DOUBLE_EQ(proc.gain_delta_db(2.25), -18.0);
  EXPECT_DOUBLE_EQ(proc.gain_delta_db(3.0), 0.0);
  EXPECT_DOUBLE_EQ(proc.gain_delta_db(7.25), -18.0);
  EXPECT_EQ(proc.transitions(), 5u);
  const auto& occ = proc.occupancy_s();
  EXPECT_DOUBLE_EQ(occ[static_cast<std::size_t>(phy::MotionState::kStill)], 6.0);
  EXPECT_DOUBLE_EQ(occ[static_cast<std::size_t>(phy::MotionState::kOcclusion)], 1.0);
  EXPECT_DOUBLE_EQ(occ[static_cast<std::size_t>(phy::MotionState::kWalk)], 0.0);
}

TEST(BodyMotion, ProfilesProduceActivityOverALongHorizon) {
  for (phy::BodyMotionParams params : {phy::BodyMotionParams{}, phy::running_profile()}) {
    phy::BodyMotionProcess proc(params, sim::Rng(11));
    (void)proc.gain_delta_db(600.0);
    EXPECT_GT(proc.transitions(), 10u);
    double total = 0.0;
    for (double s : proc.occupancy_s()) {
      EXPECT_GE(s, 0.0);
      total += s;
    }
    EXPECT_LE(total, 600.0);  // open sojourn excluded
    EXPECT_GT(total, 500.0);
  }
}

TEST(BodyMotion, RejectsNonPositiveSojournsAndDeadEnds) {
  phy::BodyMotionParams bad = two_state_chain();
  bad.states[0].mean_sojourn_s = 0.0;
  EXPECT_THROW(phy::BodyMotionProcess(bad, sim::Rng(1)), std::invalid_argument);
  phy::BodyMotionParams dead = two_state_chain();
  dead.states[static_cast<std::size_t>(phy::MotionState::kOcclusion)].next = {};
  EXPECT_THROW(phy::BodyMotionProcess(dead, sim::Rng(1)), std::invalid_argument);
}

// ---- interference field -----------------------------------------------------

TEST(Interference, CleanLevelIsInactiveAndChangesNothing) {
  const phy::InterferenceField field;  // default: no aggressors
  EXPECT_FALSE(field.active());
  EXPECT_DOUBLE_EQ(field.active_probability(), 0.0);
  EXPECT_DOUBLE_EQ(field.effective_snir_db(14.0), 14.0);
}

// p_active = 1 - (1-d)^n and the collided-state SIR folds the mean number
// of simultaneously active aggressors (conditioned on >= 1 active) into the
// single-aggressor SIR.
TEST(Interference, ActivationAndAggregateSirAnalytics) {
  phy::SirLevel level;
  level.aggressors = 2;
  level.duty_cycle = 0.5;
  level.aggressor_sir_db = 0.0;
  level.rejection_db = 20.0;
  const phy::InterferenceField field(level);
  EXPECT_TRUE(field.active());
  EXPECT_DOUBLE_EQ(field.active_probability(), 0.75);
  EXPECT_NEAR(field.aggregate_sir_db(), 0.0 - units::to_db(1.0 / 0.75), 1e-12);
  EXPECT_DOUBLE_EQ(
      field.effective_snir_db(14.0),
      phy::effective_snir_db(14.0, field.aggregate_sir_db(), level.rejection_db));
}

// ---- channel dynamics composition ------------------------------------------

// The bit-identity anchor: while the motion chain sits in a 0 dB state and
// interference is absent, the overlay must return the base FER verbatim.
TEST(ChannelDynamics, StillMotionReturnsBaseFerVerbatim) {
  const comm::WiRLink link;
  comm::ChannelDynamicsConfig cfg;
  cfg.motion = two_state_chain();  // still (0 dB) until t = 2
  comm::ChannelDynamics dyn(link, cfg, sim::Rng(3));
  const double base = 0.1234;  // arbitrary: must pass through untouched
  EXPECT_DOUBLE_EQ(dyn.loss_probability(0.5, 240, base), base);
  EXPECT_DOUBLE_EQ(dyn.loss_probability(1.9, 240, base), base);
  // Inside the occlusion the FER is recomputed at the displaced SNR and
  // must dominate the clean value.
  EXPECT_GT(dyn.loss_probability(2.2, 240, link.frame_error_rate(240)), 0.5);
}

// The per-simulation FER memo must be invisible: every (motion state,
// interference on/off, payload size) combination, queried cold on the
// first pass through the chain and warm on the second, each visit in a
// shuffled payload order, returns exactly the bits of the direct
// BER-waterfall computation.
TEST(ChannelDynamics, MemoizedLossIsBitIdenticalToDirectMath) {
  const comm::WiRLink link;
  const double snr0_db = link.spec().link_snr_db;
  const auto fer = [&link](double snr_db, std::uint32_t payload_bytes) {
    const double ber = phy::bit_error_rate(link.spec().modulation, units::from_db(snr_db));
    return 1.0 - phy::packet_success_probability(
                     ber, static_cast<unsigned>(link.on_air_bits(payload_bytes)));
  };

  // still -> walk -> run -> occlusion -> still ..., every sojourn exactly
  // 1 s, so cycle c visits state k over (4c + k, 4c + k + 1].
  constexpr std::array<double, phy::kMotionStateCount> kDeltaDb = {0.0, -3.0, -9.0, -18.0};
  phy::BodyMotionParams chain;
  chain.deterministic_sojourns = true;
  chain.initial = phy::MotionState::kStill;
  for (std::size_t k = 0; k < phy::kMotionStateCount; ++k) {
    auto& st = chain.states[k];
    st.mean_sojourn_s = 1.0;
    st.gain_delta_db = kDeltaDb[k];
    st.next = {};
    st.next[(k + 1) % phy::kMotionStateCount] = 1.0;
  }
  const phy::SirLevel level{2, 0.5, 0.0, 20.0};
  const phy::InterferenceField field(level);

  std::mt19937 shuffle_rng(2024);
  for (const bool interfered : {false, true}) {
    comm::ChannelDynamicsConfig cfg;
    cfg.motion = chain;
    if (interfered) cfg.interference = level;
    comm::ChannelDynamics dyn(link, cfg, sim::Rng(5));
    for (int cycle = 0; cycle < 2; ++cycle) {  // 0: cold, 1: warm
      for (std::size_t k = 0; k < phy::kMotionStateCount; ++k) {
        const double t = 4.0 * cycle + static_cast<double>(k) + 0.5;
        std::array<std::uint32_t, 4> payloads = {1, 60, 239, 240};
        std::shuffle(payloads.begin(), payloads.end(), shuffle_rng);
        for (const std::uint32_t payload : payloads) {
          const double base = link.frame_error_rate(payload);
          const double snr_db = snr0_db + kDeltaDb[k];
          const double quiet = kDeltaDb[k] == 0.0 ? base : fer(snr_db, payload);
          double expected = quiet;
          if (interfered) {
            const double p = field.active_probability();
            const double hit = fer(
                phy::effective_snir_db(snr_db, field.aggregate_sir_db(), level.rejection_db),
                payload);
            expected = (1.0 - p) * quiet + p * hit;
          }
          EXPECT_EQ(dyn.loss_probability(t, payload, base), expected)
              << "interfered=" << interfered << " cycle=" << cycle << " state=" << k
              << " payload=" << payload;
        }
      }
    }
  }
}

// ---- degradation controller -------------------------------------------------

TEST(Degradation, LadderValidatesRungZeroIdentity) {
  const std::vector<net::DegradationStep> ladder = net::default_degradation_ladder();
  ASSERT_GE(ladder.size(), 2u);
  EXPECT_DOUBLE_EQ(ladder[0].bitrate_scale, 1.0);
  EXPECT_EQ(ladder[0].shed_modulus, 1u);
  EXPECT_FALSE(ladder[0].int8_wire);
  EXPECT_FALSE(ladder[0].hub_only_split);

  net::DegradationConfig bad;
  bad.ladder = ladder;
  bad.ladder[0].bitrate_scale = 0.5;  // rung 0 must be the identity
  EXPECT_THROW(net::DegradationController{bad}, std::invalid_argument);
}

// A channel riding the threshold band — alternating just under the limit
// and just under it divided by nothing — must never re-arm an up-step:
// stepping up demands every metric below limit/hysteresis.
TEST(Degradation, HysteresisBandNeverOscillates) {
  net::DegradationConfig cfg;
  cfg.max_loss = 0.10;
  cfg.hysteresis = 1.15;
  cfg.min_dwell_s = 0.0;  // isolate the hysteresis discipline from dwell
  net::DegradationController ctrl(cfg);

  double t = 0.0;
  EXPECT_EQ(ctrl.update({/*loss=*/0.12, 0.0, 0}, t), 1u);  // stressed: step down
  // Ride the band: 0.095 is under the 0.10 limit but over 0.10/1.15.
  for (int i = 0; i < 100; ++i) {
    t += 0.1;
    const double loss = (i % 2 == 0) ? 0.095 : 0.0999;
    EXPECT_EQ(ctrl.update({loss, 0.0, 0}, t), 1u) << "oscillated at i=" << i;
  }
  EXPECT_EQ(ctrl.transitions(), 1u);
  // Dropping clearly below the band recovers.
  t += 0.1;
  EXPECT_EQ(ctrl.update({0.05, 0.0, 0}, t), 0u);
  EXPECT_EQ(ctrl.transitions(), 2u);
  EXPECT_DOUBLE_EQ(ctrl.last_recovery_s(), t);
}

TEST(Degradation, MinDwellGatesBackToBackTransitions) {
  net::DegradationConfig cfg;
  cfg.min_dwell_s = 0.5;
  net::DegradationController ctrl(cfg);
  EXPECT_EQ(ctrl.update({0.5, 0.0, 0}, 0.0), 1u);   // first transition is free
  EXPECT_EQ(ctrl.update({0.5, 0.0, 0}, 0.1), 1u);   // inside the dwell window
  EXPECT_EQ(ctrl.update({0.5, 0.0, 0}, 0.49), 1u);
  EXPECT_EQ(ctrl.update({0.5, 0.0, 0}, 0.6), 2u);   // dwell expired
  EXPECT_EQ(ctrl.transitions(), 2u);
}

TEST(Degradation, FullDescentThenRecoveryTelemetry) {
  net::DegradationConfig cfg;
  cfg.min_dwell_s = 0.1;
  net::DegradationController ctrl(cfg);
  const std::size_t bottom = net::default_degradation_ladder().size() - 1;
  double t = 0.0;
  for (std::size_t i = 0; i < bottom + 3; ++i) {  // +3: saturates at the bottom
    t += 0.2;
    ctrl.update({0.9, 0.9, 1000}, t);
  }
  EXPECT_EQ(ctrl.current_index(), bottom);
  EXPECT_EQ(ctrl.max_step(), bottom);
  EXPECT_EQ(ctrl.transitions(), static_cast<std::uint64_t>(bottom));
  const double degraded_so_far = ctrl.time_degraded_s(t);
  EXPECT_GT(degraded_so_far, 0.0);
  double recovered_at = 0.0;
  while (ctrl.current_index() > 0) {
    t += 0.2;
    ctrl.update({0.0, 0.0, 0}, t);
    recovered_at = t;
  }
  EXPECT_EQ(ctrl.transitions(), static_cast<std::uint64_t>(2 * bottom));
  EXPECT_EQ(ctrl.max_step(), bottom);  // max is sticky
  EXPECT_DOUBLE_EQ(ctrl.last_recovery_s(), recovered_at);
  // Degraded time stops accruing on rung 0.
  EXPECT_DOUBLE_EQ(ctrl.time_degraded_s(t + 100.0), ctrl.time_degraded_s(t));
}

// ---- clean-path overflow taxonomy ------------------------------------------

// A hub-up node offered far more than its slots can drain against a tiny
// queue: every drop must land in the new `dropped_overflow_clean` bucket
// (not the hub-down store-and-retry bucket) and the five-way taxonomy must
// partition `frames_dropped` exactly.
TEST(Taxonomy, CleanQueueOverflowPartitionsExactly) {
  net::NetworkConfig nc;
  nc.seed = 5;
  nc.mac.max_queue_frames = 4;
  net::NetworkSim sim(core::make_bus_link(core::BusKind::kWiR), nc);
  net::NodeConfig leaf;
  leaf.name = "firehose";
  leaf.stream = leaf.name;
  leaf.output_rate_bps = 4e6;  // ~2x what one slot per superframe drains
  leaf.frame_bytes = 240;
  sim.add_node(leaf);
  const net::NetworkReport report = sim.run(1.0);
  ASSERT_EQ(report.nodes.size(), 1u);
  const net::NodeReport& n = report.nodes[0];
  EXPECT_GT(n.frames_dropped, 0u);
  EXPECT_GT(n.dropped_overflow_clean, 0u);
  EXPECT_EQ(n.dropped_overflow, 0u);  // the hub never went down
  EXPECT_EQ(n.dropped_shed, 0u);      // no controller armed
  EXPECT_EQ(n.frames_dropped, n.dropped_arq + n.dropped_fault + n.dropped_overflow +
                                  n.dropped_overflow_clean + n.dropped_shed);
}

// ---- armed-but-idle bit-identity -------------------------------------------

TEST(Degradation, ArmedIdleControllerIsBitIdenticalOnCleanChannel) {
  const auto run = [](bool controller) {
    net::NetworkConfig nc;
    nc.seed = 9;
    net::NetworkSim sim(core::make_bus_link(core::BusKind::kWiR), nc);
    for (int i = 0; i < 3; ++i) {
      net::NodeConfig leaf;
      leaf.name = "audio-" + std::to_string(i);
      leaf.stream = leaf.name;
      leaf.output_rate_bps = 64e3;
      leaf.phase_s = 1e-3 * i;
      if (controller) leaf.degradation = net::DegradationConfig{};
      sim.add_node(leaf);
    }
    return sim.run(3.0);
  };
  const net::NetworkReport off = run(false);
  const net::NetworkReport on = run(true);
  ASSERT_EQ(on.nodes.size(), off.nodes.size());
  EXPECT_EQ(on.aggregate_goodput_bps, off.aggregate_goodput_bps);
  for (std::size_t i = 0; i < on.nodes.size(); ++i) {
    EXPECT_EQ(on.nodes[i].frames_delivered, off.nodes[i].frames_delivered);
    EXPECT_EQ(on.nodes[i].frames_dropped, off.nodes[i].frames_dropped);
    EXPECT_EQ(on.nodes[i].mean_latency_s, off.nodes[i].mean_latency_s);
    EXPECT_EQ(on.nodes[i].average_power_w, off.nodes[i].average_power_w);
    EXPECT_EQ(on.nodes[i].degradation_transitions, 0u);
    EXPECT_EQ(on.nodes[i].time_degraded_s, 0.0);
  }
}

// Under interference the controller must actually engage and shed frames;
// its telemetry is the node report's (the hub keeps no copy).
TEST(Degradation, StressedControllerEngagesAndSheds) {
  net::NetworkConfig nc;
  nc.seed = 13;
  nc.dynamics.interference = phy::SirLevel{2, 1.0, -5.3, 20.0};
  net::NetworkSim sim(core::make_bus_link(core::BusKind::kWiR), nc);
  net::NodeConfig leaf;
  leaf.name = "audio";
  leaf.stream = leaf.name;
  leaf.output_rate_bps = 150e3;
  leaf.settle_period_s = 0.1;
  leaf.degradation = net::DegradationConfig{};
  sim.add_node(leaf);
  net::SessionConfig session;
  session.stream = "audio";
  session.macs_per_inference = 1'000'000;
  session.bytes_per_inference = 16'000;
  sim.add_session(session);
  const net::NetworkReport report = sim.run(5.0);
  const net::NodeReport& n = report.nodes[0];
  EXPECT_GT(n.degradation_max_step, 0u);
  EXPECT_GT(n.degradation_transitions, 0u);
  EXPECT_GT(n.time_degraded_s, 0.0);
  EXPECT_GT(n.dropped_shed, 0u);
}

// ---- MAC slot auto-sizing ---------------------------------------------------

TEST(AutoSlot, DerivedSlotMatchesLinkRateAndDefaultIsUntouched) {
  sim::Simulator s1(1), s2(1), s3(1);
  const comm::WiRLink wir;
  comm::TdmaConfig auto_cfg;
  auto_cfg.slot_s = 0.0;  // request auto-sizing
  comm::TdmaBus auto_bus(s1, wir, auto_cfg);
  comm::TdmaConfig explicit_cfg;
  explicit_cfg.slot_s = wir.frame_time_s(240) * 1.25;
  comm::TdmaBus explicit_bus(s2, wir, explicit_cfg);
  auto_bus.add_node("a");
  explicit_bus.add_node("a");
  EXPECT_DOUBLE_EQ(auto_bus.superframe_duration_s(), explicit_bus.superframe_duration_s());

  comm::TdmaBus default_bus(s3, wir, comm::TdmaConfig{});
  default_bus.add_node("a");
  EXPECT_NE(default_bus.superframe_duration_s(), auto_bus.superframe_duration_s());
}

// BLE's PHY is ~4x slower than Wi-R's: the hand-set 1 ms default slot
// cannot carry a 240 B frame there, but an auto-sized bus can.
TEST(AutoSlot, BleNetworkRunsWithAutoSizedSlots) {
  net::NetworkConfig nc;
  nc.seed = 21;
  nc.mac.slot_s = 0.0;
  net::NetworkSim sim(core::make_bus_link(core::BusKind::kBle), nc);
  net::NodeConfig leaf;
  leaf.name = "imu";
  leaf.stream = leaf.name;
  leaf.output_rate_bps = 20e3;
  sim.add_node(leaf);
  const net::NetworkReport report = sim.run(1.0);
  EXPECT_GT(report.nodes[0].frames_delivered, 0u);
}

// ---- fleet SIR/motion axes --------------------------------------------------

core::FleetAxes stressed_axes() {
  core::FleetAxes axes;
  axes.node_counts = {2};
  net::NodeConfig audio;
  audio.name = "audio";
  audio.sense_power_w = 150e-6;
  audio.output_rate_bps = 64e3;
  audio.settle_period_s = 0.1;
  audio.degradation = net::DegradationConfig{};
  axes.mixes = {{"audio", {{audio, 1, std::nullopt}}}};
  axes.sir_levels = {{}, {"gym", {2, 1.0, -5.3, 20.0}}};
  axes.motion = {{}, {"two-state", true, two_state_chain()}};
  axes.seeds = {1};
  // Long enough that the two-state chain's first occlusion (t = 2..2.5)
  // falls inside the run and the ladder reacts to it.
  axes.duration_s = 3.0;
  return axes;
}

TEST(FleetChannel, StressedAxesAreByteIdenticalAcrossThreadCounts) {
  const core::Fleet fleet(stressed_axes());
  ASSERT_EQ(fleet.size(), 4u);  // 2 SIR x 2 motion
  const std::string serial = core::fleet_results_csv(fleet.run(core::SweepRunner(1)));
  EXPECT_EQ(serial, core::fleet_results_csv(fleet.run(core::SweepRunner(2))));
  EXPECT_EQ(serial, core::fleet_results_csv(fleet.run(core::SweepRunner(8))));
}

TEST(FleetChannel, StressedPointsEngageTheLadderAndCleanOnesDoNot) {
  const core::Fleet fleet(stressed_axes());
  const std::vector<core::FleetPointResult> results = fleet.run(core::SweepRunner(0));
  for (const core::FleetPointResult& r : results) {
    const bool stressed = r.coord[core::kAxisSir] != 0 || r.coord[core::kAxisMotion] != 0;
    std::uint64_t transitions = 0;
    for (const net::NodeReport& n : r.report.nodes) transitions += n.degradation_transitions;
    if (stressed) {
      EXPECT_GT(transitions, 0u) << "stressed point " << r.index << " never degraded";
    } else {
      EXPECT_EQ(transitions, 0u) << "clean point " << r.index << " degraded";
    }
  }
}

// ---- device-library motion-heavy suite --------------------------------------

// The preset's contract: three leaves (watch/patch/earbud), every one with
// the ladder armed, settle cadence well inside a gait sojourn, and the
// running-wearer motion profile ready to install via NetworkConfig.
TEST(DeviceLibrary, MotionHeavySuiteShipsArmedOnARunningWearer) {
  const net::SuitePreset suite = net::motion_heavy_suite();
  ASSERT_EQ(suite.nodes.size(), 3u);
  EXPECT_EQ(suite.nodes[0].name, "watch");
  EXPECT_EQ(suite.nodes[1].name, "patch");
  EXPECT_EQ(suite.nodes[2].name, "earbud");
  for (const auto& n : suite.nodes) {
    EXPECT_TRUE(n.degradation.has_value()) << n.name;
    EXPECT_LE(n.settle_period_s, 0.5) << n.name;
  }
  EXPECT_EQ(suite.motion.initial, phy::MotionState::kRun);
  // The suite must actually run under its own motion profile: the chain
  // validates (no dead ends) and an armed network survives a short episode.
  comm::WiRLink link;
  net::NetworkConfig cfg{/*seed=*/3};
  cfg.dynamics.motion = suite.motion;
  net::NetworkSim sim(link, cfg);
  for (net::NodeConfig n : suite.nodes) sim.add_node(std::move(n));
  const net::NetworkReport r = sim.run(2.0);
  ASSERT_EQ(r.nodes.size(), 3u);
  std::uint64_t delivered = 0;
  for (const auto& n : r.nodes) delivered += n.frames_delivered;
  EXPECT_GT(delivered, 0u);
}

}  // namespace
}  // namespace iob
