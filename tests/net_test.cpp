// Unit + integration tests for src/net: the Fig. 2 device survey, full node/hub/network DES runs with energy-conservation and
// determinism checks, and rate-proportional slot weights.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "comm/tdma.hpp"
#include "comm/wir_link.hpp"
#include "common/units.hpp"
#include "energy/lifetime.hpp"
#include "net/device_library.hpp"
#include "net/hub.hpp"
#include "net/network_sim.hpp"
#include "net/topology.hpp"

namespace iob::net {
namespace {

using namespace iob::units;

// ---- Device library (Fig. 2) -----------------------------------------------------

TEST(DeviceLibrary, ElevenDeviceClasses) {
  EXPECT_EQ(device_survey().size(), 11u);
}

TEST(DeviceLibrary, BatteryLifeMatchesPaperBuckets) {
  // Every device's computed battery life must classify into the same bucket
  // Fig. 2 prints for it.
  for (const auto& d : device_survey()) {
    const auto cls = energy::classify(d.battery_life_s());
    const std::string label = energy::to_string(cls);
    EXPECT_EQ(label, d.paper_battery_label) << d.name;
  }
}

TEST(DeviceLibrary, EraSplitMatchesFigure) {
  int pre = 0, boom = 0;
  for (const auto& d : device_survey()) {
    (d.era == DeviceEra::kPre2024 ? pre : boom)++;
  }
  EXPECT_EQ(pre, 6);
  EXPECT_EQ(boom, 5);
}

TEST(DeviceLibrary, RingOutlastsHeadset) {
  // The figure's extremes: smart ring (all-week) vs MR headset (3-5 hr).
  EXPECT_GT(find_device("smart ring").battery_life_hours(), 24.0 * 6);
  EXPECT_LT(find_device("mixed reality headset").battery_life_hours(), 5.0);
  EXPECT_THROW(find_device("tricorder"), std::invalid_argument);
}

TEST(DeviceLibrary, SmartphoneUnder10Hours) {
  const double h = find_device("smartphone").battery_life_hours();
  EXPECT_LT(h, 10.0);
  EXPECT_GT(h, 5.0);
}

// ---- Node + NetworkSim (DES integration) --------------------------------------------

NodeConfig ecg_node() {
  NodeConfig n;
  n.name = "ecg-patch";
  n.location = BodyLocation::kChest;
  n.stream = "ecg";
  n.sense_power_w = 10.0 * uW;
  n.isa_power_w = 2.0 * uW;
  n.output_rate_bps = 6.0 * kbps;
  n.frame_bytes = 120;
  return n;
}

TEST(NetworkSim, SingleNodeStreamsToHub) {
  comm::WiRLink wir;
  NetworkSim net(wir, NetworkConfig{1, {}, {}, false});
  net.add_node(ecg_node());
  SessionConfig session;
  session.stream = "ecg";
  net.add_session(session);
  const NetworkReport report = net.run(30.0);

  ASSERT_EQ(report.nodes.size(), 1u);
  EXPECT_GT(report.nodes[0].frames_delivered, 100u);
  EXPECT_EQ(report.nodes[0].frames_dropped, 0u);
  // Hub ingest equals node delivery.
  EXPECT_EQ(net.hub().session("ecg").bytes_in, report.nodes[0].frames_delivered * 120u);
}

TEST(NetworkSim, NodePowerIsSumOfComponents) {
  comm::WiRLink wir;
  NetworkSim net(wir, NetworkConfig{2, {}, {}, false});
  const auto idx = net.add_node(ecg_node());
  net.run(60.0);
  const Node& node = net.node(idx);
  // avg >= sense + isa (comm adds on top), and within a sane envelope.
  const double base = 12.0 * uW;
  EXPECT_GE(node.average_power_w(), base * 0.99);
  EXPECT_LT(node.average_power_w(), base + 50.0 * uW);
}

TEST(NetworkSim, EnergyConservation) {
  comm::WiRLink wir;
  NetworkSim net(wir, NetworkConfig{3, {}, {}, false});
  const auto idx = net.add_node(ecg_node());
  net.run(50.0);
  const Node& node = net.node(idx);
  // Battery drop equals consumed energy (no harvester configured).
  const double drop = node.battery().usable_energy_j() - node.battery().remaining_j();
  EXPECT_NEAR(drop, node.energy_consumed_j(), node.energy_consumed_j() * 1e-6 + 1e-12);
  EXPECT_DOUBLE_EQ(node.energy_harvested_j(), 0.0);
}

TEST(NetworkSim, EcgPatchIsPerpetualClass) {
  // The paper's headline: biopotential nodes on Wi-R become perpetual
  // (>1 yr on the 1000 mAh coin cell).
  comm::WiRLink wir;
  NetworkSim net(wir, NetworkConfig{4, {}, {}, false});
  net.add_node(ecg_node());
  const NetworkReport report = net.run(120.0);
  EXPECT_TRUE(report.nodes[0].perpetual) << report.nodes[0].projected_life_days << " days";
}

TEST(NetworkSim, HarvesterExtendsLife) {
  comm::WiRLink wir;
  NetworkConfig cfg;
  cfg.seed = 5;
  NetworkSim net_plain(wir, cfg);
  net_plain.add_node(ecg_node());
  const auto r1 = net_plain.run(60.0);

  comm::WiRLink wir2;
  NetworkSim net_harv(wir2, cfg);
  NodeConfig with_h = ecg_node();
  energy::HarvesterParams hp;
  hp.mean_power_w = 50.0 * uW;
  hp.availability = 1.0;
  with_h.harvester = hp;
  const auto idx = net_harv.add_node(with_h);
  const auto r2 = net_harv.run(60.0);

  // Harvest (50 uW) covers the ~15 uW load: infinite projected life.
  EXPECT_TRUE(std::isinf(r2.nodes[0].projected_life_days));
  EXPECT_GT(net_harv.node(idx).energy_harvested_j(), 0.0);
  EXPECT_FALSE(std::isinf(r1.nodes[0].projected_life_days));
}

TEST(NetworkSim, MultiNodeLatencyAndGoodput) {
  comm::WiRLink wir;
  NetworkSim net(wir, NetworkConfig{6, {}, {}, false});
  NodeConfig ecg = ecg_node();
  NodeConfig imu = ecg_node();
  imu.name = "imu";
  imu.stream = "imu";
  imu.output_rate_bps = 4.8 * kbps;
  NodeConfig audio = ecg_node();
  audio.name = "audio";
  audio.stream = "audio";
  audio.output_rate_bps = 64.0 * kbps;
  audio.frame_bytes = 240;
  net.add_node(ecg);
  net.add_node(imu);
  net.add_node(audio);
  const NetworkReport report = net.run(30.0);

  const double offered = 6000.0 + 4800.0 + 64000.0;
  EXPECT_NEAR(report.aggregate_goodput_bps, offered, offered * 0.1);
  for (const auto& n : report.nodes) {
    EXPECT_GT(n.frames_delivered, 0u);
    EXPECT_LT(n.mean_latency_s, 0.1);
  }
  EXPECT_LT(report.bus_utilization, 0.2);  // Wi-R has ample headroom
}

TEST(NetworkSim, HubSessionsRunInference) {
  comm::WiRLink wir;
  NetworkSim net(wir, NetworkConfig{7, {}, {}, false});
  net.add_node(ecg_node());
  SessionConfig s;
  s.stream = "ecg";
  s.macs_per_inference = 185'000;
  s.bytes_per_inference = 720;  // one second of 12-bit 360 Hz, byte-packed
  net.add_session(s);
  net.run(30.0);
  const SessionStats& st = net.hub().session("ecg");
  EXPECT_GT(st.inferences, 20u);
  EXPECT_GT(st.compute_energy_j, 0.0);
  EXPECT_EQ(st.uplink_energy_j, 0.0);  // no cloud forwarding configured
}

// ---- Hub stream routing -------------------------------------------------------

TEST(Hub, SessionAddedAfterItsNodeStillReceivesFrames) {
  // Both nodes intern their stream tags before any session exists, and the
  // sessions register in the opposite order, so session slots and stream
  // ids disagree. Every delivered byte must still reach its own session.
  comm::WiRLink wir;
  NetworkSim net(wir, NetworkConfig{8, {}, {}, false});
  NodeConfig imu = ecg_node();
  imu.name = "imu";
  imu.stream = "imu";
  imu.output_rate_bps = 4.8 * kbps;
  net.add_node(ecg_node());
  net.add_node(imu);
  SessionConfig s;
  s.macs_per_inference = 1'000;
  s.bytes_per_inference = 120;
  s.stream = "imu";
  net.add_session(s);
  s.stream = "ecg";
  net.add_session(s);
  const NetworkReport report = net.run(10.0);

  const auto& mac = net.bus().stats().nodes;
  ASSERT_GT(mac[0].bytes_delivered, 0u);
  ASSERT_GT(mac[1].bytes_delivered, 0u);
  EXPECT_EQ(net.hub().session("ecg").bytes_in, mac[0].bytes_delivered);
  EXPECT_EQ(net.hub().session("imu").bytes_in, mac[1].bytes_delivered);
  EXPECT_EQ(net.hub().session("ecg").inferences, report.nodes[0].frames_delivered);
  EXPECT_EQ(net.hub().session("imu").inferences, report.nodes[1].frames_delivered);
}

TEST(Hub, UnregisteredStreamIsCountedButNotStaged) {
  // Frames on a stream with no session, and frames on no stream at all,
  // are delivered (the bus counts them) but stage into no session.
  sim::Simulator sim(9);
  comm::WiRLink wir;
  comm::TdmaBus bus(sim, wir, {});
  Hub hub(sim, bus);
  const comm::NodeId a = bus.add_node("a");
  SessionConfig s;
  s.stream = "ecg";
  s.macs_per_inference = 1'000;
  s.bytes_per_inference = 100;
  hub.add_session(s);
  const comm::StreamId orphan = bus.intern_stream("orphan");

  comm::Frame f;
  f.payload_bytes = 100;
  f.stream = bus.find_stream("ecg");
  ASSERT_TRUE(bus.enqueue(a, f));
  f.stream = orphan;
  ASSERT_TRUE(bus.enqueue(a, f));
  f.stream = comm::kNoStream;
  ASSERT_TRUE(bus.enqueue(a, f));
  bus.start(0.0);
  sim.run_until(0.01);
  bus.stop();

  EXPECT_EQ(bus.stats().nodes[0].frames_delivered, 3u);
  EXPECT_EQ(bus.stats().nodes[0].bytes_delivered, 300u);
  EXPECT_EQ(hub.session("ecg").bytes_in, 100u);
  EXPECT_EQ(hub.session("ecg").inferences, 1u);
  EXPECT_THROW((void)hub.session("orphan"), std::invalid_argument);
}

TEST(NetworkSim, DeterministicAcrossRuns) {
  auto run_once = [] {
    comm::WiRLink wir;
    NetworkSim net(wir, NetworkConfig{42, {}, {}, false});
    NodeConfig n = ecg_node();
    net.add_node(n);
    return net.run(20.0);
  };
  const NetworkReport a = run_once();
  const NetworkReport b = run_once();
  EXPECT_EQ(a.nodes[0].frames_delivered, b.nodes[0].frames_delivered);
  EXPECT_DOUBLE_EQ(a.nodes[0].average_power_w, b.nodes[0].average_power_w);
  EXPECT_DOUBLE_EQ(a.nodes[0].mean_latency_s, b.nodes[0].mean_latency_s);
  EXPECT_DOUBLE_EQ(a.hub_power_w, b.hub_power_w);
}

TEST(NetworkSim, DeadBatteryStopsTraffic) {
  comm::WiRLink wir;
  NetworkSim net(wir, NetworkConfig{8, {}, {}, false});
  NodeConfig tiny = ecg_node();
  tiny.battery_mah = 1e-6;  // ~10 uJ: dies almost immediately
  tiny.settle_period_s = 0.1;
  const auto idx = net.add_node(tiny);
  const NetworkReport report = net.run(30.0);
  EXPECT_FALSE(net.node(idx).alive());
  // Traffic stops shortly after depletion; far fewer frames than a healthy
  // node would deliver (healthy: ~6000 b/s * 30 s / 960 b/frame ~ 187).
  EXPECT_LT(report.nodes[0].frames_delivered, 50u);
}

TEST(NetworkSim, TraceCapturesDeliveries) {
  comm::WiRLink wir;
  NetworkConfig cfg;
  cfg.seed = 9;
  cfg.trace = true;
  NetworkSim net(wir, cfg);
  net.add_node(ecg_node());
  net.run(5.0);
  EXPECT_GT(net.trace().count("deliver"), 0u);
  EXPECT_GT(net.trace().count("beacon"), 0u);
}

TEST(NetworkSim, RunTwiceRejected) {
  comm::WiRLink wir;
  NetworkSim net(wir);
  net.add_node(ecg_node());
  net.run(1.0);
  EXPECT_THROW(net.run(1.0), std::invalid_argument);
  EXPECT_THROW(net.add_node(ecg_node()), std::invalid_argument);
}

// ---- Rate-proportional slots at the network level -----------------------------------

TEST(SlotWeights, HeavyStreamGetsProportionalService) {
  comm::WiRLink wir;
  net::NetworkSim net(wir, net::NetworkConfig{26, {}, {}, false});

  net::NodeConfig audio;
  audio.name = "audio";
  audio.stream = "audio";
  audio.sense_power_w = 150.0 * uW;
  audio.output_rate_bps = 128.0 * kbps;
  audio.frame_bytes = 240;
  audio.slot_weight = 3;
  net.add_node(audio);

  net::NodeConfig ecg;
  ecg.name = "ecg";
  ecg.stream = "ecg";
  ecg.sense_power_w = 8.0 * uW;
  ecg.output_rate_bps = 6.0 * kbps;
  net.add_node(ecg);

  const net::NetworkReport rep = net.run(20.0);
  // Both streams fully served, no drops, despite the 20x rate asymmetry.
  for (const auto& n : rep.nodes) {
    EXPECT_EQ(n.frames_dropped, 0u) << n.name;
    EXPECT_LT(n.mean_latency_s, 0.05) << n.name;
  }
  const double offered = 128e3 + 6e3;
  EXPECT_NEAR(rep.aggregate_goodput_bps, offered, offered * 0.1);
}

}  // namespace
}  // namespace iob::net
