// Tests for the hub's batched inference engine: batch=1 equivalence with
// the no-window path (bit-identical energy), one pass per delivery without a
// window, a hand-computed weight-energy split for a 2-session batch, the
// analytic amortization curve, energy-per-inference monotonicity vs
// concurrency, and byte-identical fleet grids at 1/2/8 threads with
// batching enabled.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "comm/tdma.hpp"
#include "comm/wir_link.hpp"
#include "core/explorer.hpp"
#include "core/fleet.hpp"
#include "core/sweep_runner.hpp"
#include "net/network_sim.hpp"
#include "sim/simulator.hpp"

namespace iob {
namespace {

net::NodeConfig ecg_node() {
  net::NodeConfig n;
  n.name = "ecg-patch";
  n.stream = "ecg";
  n.sense_power_w = 10e-6;
  n.isa_power_w = 2e-6;
  n.output_rate_bps = 6000.0;
  n.frame_bytes = 240;
  return n;
}

net::SessionConfig kws_session(std::string stream) {
  net::SessionConfig s;
  s.stream = std::move(stream);
  s.macs_per_inference = 2'500'000;
  s.bytes_per_inference = 240;  // one inference per delivered frame
  s.model = "kws-dscnn";
  s.weight_bytes = 24'000;  // int8 weight footprint streamed per pass
  s.forward_to_cloud = true;
  return s;
}

// ---- batch=1 equivalence ----------------------------------------------------

net::NetworkReport run_single_stream(unsigned batch_window, net::SessionStats& out_stats,
                                     std::uint64_t& out_frames) {
  comm::WiRLink wir;
  net::NetworkConfig cfg;
  cfg.seed = 11;
  cfg.hub.batch_window = batch_window;
  net::NetworkSim net(wir, cfg);
  net.add_node(ecg_node());
  net.add_session(kws_session("ecg"));
  const net::NetworkReport report = net.run(30.0);
  out_stats = net.hub().session("ecg");
  out_frames = net.bus().stats().nodes[0].frames_delivered;
  return report;
}

TEST(HubBatching, BatchWindow1BitIdenticalToPerFramePath) {
  // One 6 kb/s stream emits a 240 B frame every 0.32 s, far slower than the
  // ~1.5 ms superframe, so every batched flush folds at most one inference:
  // the staged path must reproduce the per-frame path exactly.
  net::SessionStats legacy, batched;
  std::uint64_t legacy_frames = 0, batched_frames = 0;
  const net::NetworkReport r0 = run_single_stream(0, legacy, legacy_frames);
  const net::NetworkReport r1 = run_single_stream(1, batched, batched_frames);

  ASSERT_GT(legacy.inferences, 50u);
  EXPECT_EQ(legacy_frames, batched_frames);
  EXPECT_EQ(legacy.inferences, batched.inferences);
  EXPECT_EQ(legacy.bytes_in, batched.bytes_in);
  // Bit-identical doubles, not just approximately equal.
  EXPECT_EQ(legacy.compute_energy_j, batched.compute_energy_j);
  EXPECT_EQ(legacy.uplink_energy_j, batched.uplink_energy_j);
  EXPECT_EQ(r0.hub_power_w, r1.hub_power_w);
  EXPECT_EQ(r0.nodes[0].frames_delivered, r1.nodes[0].frames_delivered);

  // Both runs attribute everything through the batched engine; only the
  // windowed run records the staging delay.
  EXPECT_EQ(batched.batched_inferences, batched.inferences);
  EXPECT_EQ(batched.batched_passes, batched.inferences);  // one inference per flush
  EXPECT_EQ(legacy.batched_inferences, legacy.inferences);
  EXPECT_EQ(legacy.queued_latency_s.count(), 0u);
  EXPECT_EQ(batched.queued_latency_s.count(), batched_frames);
  EXPECT_GE(batched.queued_latency_s.min(), 0.0);
}

TEST(HubBatching, LegacyDefaultsBitIdenticalToSeedEnergyModel) {
  // weight_bytes defaults to 0: the per-frame path must charge exactly the
  // historical macs-only energy (x + 0.0 is exact).
  comm::WiRLink wir;
  net::NetworkConfig cfg;
  cfg.seed = 7;
  net::NetworkSim net(wir, cfg);
  net.add_node(ecg_node());
  net::SessionConfig s;
  s.stream = "ecg";
  s.macs_per_inference = 185'000;
  s.bytes_per_inference = 720;
  net.add_session(s);
  net.run(30.0);
  const net::SessionStats& st = net.hub().session("ecg");
  ASSERT_GT(st.inferences, 20u);
  double expected = 0.0;
  for (std::uint64_t i = 0; i < st.inferences; ++i) {
    expected += static_cast<double>(s.macs_per_inference) * net.hub().config().energy_per_mac_j;
  }
  EXPECT_EQ(st.compute_energy_j, expected);
}

TEST(HubBatching, NoWindowRunsEachDeliveryInOnePass) {
  // A 240 B frame against a 120 B window completes two windows at once.
  // Without a batch window the delivery flushes them as one pass of 2, so
  // the weights stream once per frame, not once per inference.
  sim::Simulator sim(1);
  comm::WiRLink wir;
  comm::TdmaBus bus(sim, wir, {});
  net::HubConfig hc;
  net::Hub hub(sim, bus, hc);

  const comm::NodeId a = bus.add_node("a");
  net::SessionConfig sa;
  sa.stream = "a";
  sa.macs_per_inference = 1'000'000;
  sa.bytes_per_inference = 120;
  sa.model = "m";
  sa.weight_bytes = 20'000;
  hub.add_session(sa);

  comm::Frame f;
  f.payload_bytes = 240;
  f.created_s = 0.0;
  f.stream = bus.find_stream("a");
  ASSERT_TRUE(bus.enqueue(a, f));
  ASSERT_TRUE(bus.enqueue(a, f));
  bus.start(0.0);
  sim.run_until(0.01);
  bus.stop();

  ASSERT_EQ(bus.stats().nodes[0].frames_delivered, 2u);
  const net::SessionStats& st = hub.session("a");
  EXPECT_EQ(st.inferences, 4u);
  EXPECT_EQ(st.batched_inferences, 4u);
  EXPECT_EQ(hub.batched_passes(), 2u);  // one pass per frame
  EXPECT_EQ(st.batched_passes, 2u);
  const double weight_j = 20'000.0 * hc.energy_per_weight_byte_j;
  EXPECT_DOUBLE_EQ(st.compute_energy_j, 4'000'000.0 * hc.energy_per_mac_j + 2.0 * weight_j);
  EXPECT_EQ(st.queued_latency_s.count(), 0u);  // no window, no staging delay
}

// ---- hand-computed 2-session batch ------------------------------------------

TEST(HubBatching, TwoSessionBatchSplitsWeightEnergyByShare) {
  sim::Simulator sim(1);
  comm::WiRLink wir;
  comm::TdmaBus bus(sim, wir, {});
  net::HubConfig hc;
  hc.batch_window = 1;
  net::Hub hub(sim, bus, hc);

  const comm::NodeId a = bus.add_node("a");
  const comm::NodeId b = bus.add_node("b");
  net::SessionConfig sa;
  sa.stream = "a";
  sa.macs_per_inference = 1'000'000;
  sa.bytes_per_inference = 240;
  sa.model = "m";
  sa.weight_bytes = 20'000;
  net::SessionConfig sb = sa;
  sb.stream = "b";
  sb.macs_per_inference = 3'000'000;
  hub.add_session(sa);
  hub.add_session(sb);

  comm::Frame f;
  f.payload_bytes = 240;
  f.created_s = 0.0;
  f.stream = bus.find_stream("a");
  ASSERT_TRUE(bus.enqueue(a, f));
  f.stream = bus.find_stream("b");
  ASSERT_TRUE(bus.enqueue(b, f));

  bus.start(0.0);
  sim.run_until(0.01);
  bus.stop();

  // Both frames deliver in the first superframe (one slot each), so the
  // boundary flush folds them into one batch of 2 sharing model "m":
  //   e_i = macs_i * e_mac + (weight_bytes * e_wb) / 2.
  ASSERT_EQ(bus.stats().nodes[a - 1].frames_delivered, 1u);
  ASSERT_EQ(bus.stats().nodes[b - 1].frames_delivered, 1u);
  const net::SessionStats& sta = hub.session("a");
  const net::SessionStats& stb = hub.session("b");
  ASSERT_EQ(sta.inferences, 1u);
  ASSERT_EQ(stb.inferences, 1u);
  EXPECT_EQ(hub.batched_passes(), 1u);
  EXPECT_EQ(sta.batched_passes, 1u);
  EXPECT_EQ(stb.batched_passes, 1u);

  const double e_mac = hc.energy_per_mac_j;
  const double weight_j = 20'000.0 * hc.energy_per_weight_byte_j;
  EXPECT_DOUBLE_EQ(sta.compute_energy_j, 1'000'000.0 * e_mac + weight_j / 2.0);
  EXPECT_DOUBLE_EQ(stb.compute_energy_j, 3'000'000.0 * e_mac + weight_j / 2.0);
  // The pass total carries the weight energy exactly once.
  EXPECT_DOUBLE_EQ(sta.compute_energy_j + stb.compute_energy_j,
                   4'000'000.0 * e_mac + weight_j);
  EXPECT_EQ(sta.queued_latency_s.count(), 1u);
  EXPECT_GT(sta.queued_latency_s.mean(), 0.0);
}

TEST(HubBatching, FinalPartialWindowFlushesAtEndOfRun) {
  // A window far wider than the run means no superframe boundary ever
  // triggers a flush; NetworkSim::run's end-of-run flush_pending must fold
  // the whole run into one final batch so nothing staged goes unmeasured.
  auto run_with_window = [](unsigned window) {
    comm::WiRLink wir;
    net::NetworkConfig cfg;
    cfg.seed = 11;
    cfg.hub.batch_window = window;
    net::NetworkSim net(wir, cfg);
    net::NodeConfig n = ecg_node();
    n.output_rate_bps = 64e3;  // 30 ms frame period: ~33 frames in 1 s
    net.add_node(n);
    net.add_session(kws_session("ecg"));
    net.run(1.0);
    return net.hub().session("ecg");
  };
  const net::SessionStats legacy = run_with_window(0);
  const net::SessionStats wide = run_with_window(1'000'000);
  ASSERT_GT(legacy.inferences, 20u);
  EXPECT_EQ(wide.inferences, legacy.inferences);
  EXPECT_EQ(wide.batched_inferences, wide.inferences);
  EXPECT_EQ(wide.batched_passes, 1u);  // everything folded into one final pass
  EXPECT_EQ(wide.queued_latency_s.count(), legacy.inferences);
  // One pass streams the weights once; the per-frame path paid them per
  // inference, so the batched total must be strictly cheaper here.
  EXPECT_LT(wide.compute_energy_j, legacy.compute_energy_j);
  // The final superframe delivers frames stamped past the run horizon; the
  // end-of-run flush must clamp their wait at zero, never go negative.
  EXPECT_GE(wide.queued_latency_s.min(), 0.0);
}

TEST(HubBatching, EndOfRunFlushNeverRecordsNegativeQueuedLatency) {
  // Repro shape for the clamp: a wide network whose superframe stretches
  // far past the run horizon, so late-stamped deliveries hit the final
  // flush_pending with boundary < delivered_at.
  net::NetworkConfig cfg;
  cfg.seed = 3;
  cfg.hub.batch_window = 1'000'000;
  net::NetworkSim net(std::make_unique<comm::WiRLink>(), cfg);
  for (int i = 0; i < 24; ++i) {
    net::NodeConfig n;
    n.name = "audio-" + std::to_string(i);
    n.stream = n.name;
    n.output_rate_bps = 64e3;
    n.frame_bytes = 240;
    net.add_node(n);
    net.add_session(kws_session(n.stream));
  }
  net.run(1.0);
  for (int i = 0; i < 24; ++i) {
    const net::SessionStats& st = net.hub().session("audio-" + std::to_string(i));
    if (st.queued_latency_s.count() > 0) {
      EXPECT_GE(st.queued_latency_s.min(), 0.0) << "session " << i;
    }
  }
}

TEST(HubBatching, ReRegisteringASessionMovesItBetweenModelGroups) {
  // Re-adding a stream under a new model tag must leave it in exactly one
  // group: "a" and "b" share model "m", so a 2-frame superframe flushes one
  // batch of 2 (weight paid once), not a private pass plus a shared one.
  sim::Simulator sim(1);
  comm::WiRLink wir;
  comm::TdmaBus bus(sim, wir, {});
  net::HubConfig hc;
  hc.batch_window = 1;
  net::Hub hub(sim, bus, hc);

  const comm::NodeId a = bus.add_node("a");
  const comm::NodeId b = bus.add_node("b");
  net::SessionConfig sa;
  sa.stream = "a";
  sa.macs_per_inference = 1'000'000;
  sa.bytes_per_inference = 240;
  sa.weight_bytes = 20'000;
  hub.add_session(sa);  // private group "~stream:a" first...
  sa.model = "m";
  hub.add_session(sa);  // ...then re-registered into shared group "m"
  net::SessionConfig sb = sa;
  sb.stream = "b";
  hub.add_session(sb);

  comm::Frame f;
  f.payload_bytes = 240;
  f.created_s = 0.0;
  f.stream = bus.find_stream("a");
  ASSERT_TRUE(bus.enqueue(a, f));
  f.stream = bus.find_stream("b");
  ASSERT_TRUE(bus.enqueue(b, f));
  bus.start(0.0);
  sim.run_until(0.01);
  bus.stop();

  ASSERT_EQ(bus.stats().nodes[a - 1].frames_delivered, 1u);
  ASSERT_EQ(bus.stats().nodes[b - 1].frames_delivered, 1u);
  EXPECT_EQ(hub.batched_passes(), 1u);
  const double weight_j = 20'000.0 * hc.energy_per_weight_byte_j;
  EXPECT_DOUBLE_EQ(hub.session("a").compute_energy_j,
                   1'000'000.0 * hc.energy_per_mac_j + weight_j / 2.0);
}

// ---- analytic curve ---------------------------------------------------------

TEST(HubBatching, AnalyticCurveAmortizesWeightCostOnly) {
  const auto curve = core::hub_batching_curve(2'500'000, 24'000, 5e-12, 50e-12, {1, 2, 4, 8});
  ASSERT_EQ(curve.size(), 4u);
  const double per_sample = 2'500'000.0 * 5e-12;
  const double weight = 24'000.0 * 50e-12;
  for (std::size_t i = 0; i < curve.size(); ++i) {
    EXPECT_DOUBLE_EQ(curve[i].weight_share_j, weight / curve[i].batch);
    EXPECT_DOUBLE_EQ(curve[i].energy_per_inference_j, per_sample + weight / curve[i].batch);
    if (i > 0) {
      EXPECT_LT(curve[i].energy_per_inference_j, curve[i - 1].energy_per_inference_j);
    }
  }
  EXPECT_THROW(core::hub_batching_curve(1, 1, 5e-12, 50e-12, {0}), std::invalid_argument);
}

// ---- energy/inference monotonicity ------------------------------------------

// Deliberately NOT a copy of bench/hub_batching.cpp's workload: this uses
// the HubConfig default weight-byte energy and a rounder weight footprint,
// so the monotonicity property is asserted independently of the bench's
// exact tuning rather than against one shared construction.
double energy_per_inference(int leaves, unsigned batch_window) {
  net::NetworkConfig cfg;
  cfg.seed = 42;
  cfg.hub.batch_window = batch_window;
  net::NetworkSim net(std::make_unique<comm::WiRLink>(), cfg);
  const double frame_period_s = 240.0 * 8.0 / 64e3;  // 30 ms
  for (int i = 0; i < leaves; ++i) {
    net::NodeConfig n;
    n.name = "audio-" + std::to_string(i);
    n.stream = n.name;
    n.sense_power_w = 150e-6;
    n.output_rate_bps = 64e3;
    n.frame_bytes = 240;
    // De-phased sensors: arrivals spread across superframes, so the staged
    // batch size tracks the window, not the population.
    n.phase_s = frame_period_s * static_cast<double>(i) / static_cast<double>(leaves);
    net.add_node(n);
    net.add_session(kws_session(n.stream));
  }
  net.run(3.0);
  double energy = 0.0;
  std::uint64_t inferences = 0;
  for (int i = 0; i < leaves; ++i) {
    const net::SessionStats& st = net.hub().session("audio-" + std::to_string(i));
    energy += st.compute_energy_j;
    inferences += st.inferences;
  }
  EXPECT_GT(inferences, 0u);
  return energy / static_cast<double>(inferences);
}

TEST(HubBatching, EnergyPerInferenceStrictlyDecreasesWithConcurrency) {
  // Fixed 8-superframe staging window: more concurrent KWS streams fold
  // into bigger batches, so the amortized weight share must shrink.
  double prev = energy_per_inference(1, 8);
  for (const int leaves : {2, 4, 8}) {
    const double cur = energy_per_inference(leaves, 8);
    EXPECT_LT(cur, prev) << leaves << " leaves";
    prev = cur;
  }
}

TEST(HubBatching, EnergyPerInferenceStrictlyDecreasesWithBatchWindowAt4Leaves) {
  // The acceptance shape of BENCH_hub_batching.json, asserted in-sim: at
  // >= 4 concurrent sessions, widening the batch window strictly reduces
  // hub compute energy per inference.
  double prev = energy_per_inference(4, 1);
  for (const unsigned window : {2u, 4u, 8u}) {
    const double cur = energy_per_inference(4, window);
    EXPECT_LT(cur, prev) << "window " << window;
    prev = cur;
  }
  // And batching never exceeds the per-frame path's cost.
  EXPECT_LT(energy_per_inference(4, 8), energy_per_inference(4, 0));
}

// ---- fleet determinism with batching ----------------------------------------

core::FleetAxes batched_axes() {
  core::NodeClassSpec audio;
  audio.base.name = "audio";
  audio.base.sense_power_w = 150e-6;
  audio.base.output_rate_bps = 64e3;
  audio.base.frame_bytes = 240;
  audio.share = 1;
  audio.session = kws_session("");  // stream tag overwritten per node
  core::NodeClassSpec bio;
  bio.base.name = "bio";
  bio.base.sense_power_w = 8e-6;
  bio.base.output_rate_bps = 5e3;
  bio.share = 1;

  core::FleetAxes axes;
  axes.node_counts = {2, 5};
  axes.mixes = {{"kws-mix", {audio, bio}}};
  axes.batch_windows = {1, 4};
  axes.seeds = {7};
  axes.duration_s = 0.5;
  return axes;
}

TEST(HubBatching, FleetGridByteIdenticalAt1_2_8ThreadsWithBatchingEnabled) {
  const core::Fleet fleet(batched_axes());
  const core::SweepRunner serial(1);
  const std::string reference = core::fleet_results_csv(fleet.run(serial));
  EXPECT_NE(reference.find('\n'), std::string::npos);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const core::SweepRunner runner(threads);
    EXPECT_EQ(reference, core::fleet_results_csv(fleet.run(runner)))
        << "thread count " << threads;
  }
}

}  // namespace
}  // namespace iob
