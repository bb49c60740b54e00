// Unit tests for src/partition: split-point evaluation against
// hand-computed costs, optimizer-vs-brute-force equivalence, the
// BLE-vs-Wi-R offload crossover, the ISA mode chooser, and the
// glide-path budget behind the battery-driven split controller.

#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "comm/ble_link.hpp"
#include "comm/wir_link.hpp"
#include "common/units.hpp"
#include "energy/battery.hpp"
#include "nn/layers.hpp"
#include "nn/model.hpp"
#include "nn/model_zoo.hpp"
#include "nn/quantize.hpp"
#include "partition/adaptive_split.hpp"
#include "partition/cost_model.hpp"
#include "partition/isa_chooser.hpp"
#include "partition/partitioner.hpp"
#include "sim/simulator.hpp"

namespace iob::partition {
namespace {

using namespace iob::units;

/// A tiny 3-layer model with easily hand-checked MACs and sizes.
nn::Model tiny_model() {
  nn::Model m("tiny", nn::Shape{16});
  m.add(std::make_unique<nn::FullyConnected>(16, 8, std::vector<float>(128, 0.1f),
                                             std::vector<float>(8, 0.0f)));
  m.add(std::make_unique<nn::FullyConnected>(8, 4, std::vector<float>(32, 0.1f),
                                             std::vector<float>(4, 0.0f)));
  m.add(std::make_unique<nn::FullyConnected>(4, 2, std::vector<float>(8, 0.1f),
                                             std::vector<float>(2, 0.0f)));
  return m;
}

CostModel simple_cost() {
  CostModel cm;
  cm.leaf = {"leaf", 20e-12, 50e6};
  cm.hub = {"hub", 5e-12, 2e9};
  cm.cloud = {"cloud", 1e-12, 100e9};
  cm.leaf_hub = {"bus", 1e6, 100e-12, 40e-12, 1e-4};
  cm.hub_cloud = {"uplink", 20e6, 30e-9, 30e-9, 20e-3};
  cm.transport = nn::Precision::kInt8;
  return cm;
}

TEST(Partitioner, AllOnLeafHandComputed) {
  const nn::Model m = tiny_model();
  const Partitioner part(m, simple_cost());
  const PartitionPlan plan = part.all_on_leaf();
  // 128 + 32 + 8 = 168 MACs at 20 pJ.
  EXPECT_NEAR(plan.leaf_compute_j, 168.0 * 20e-12, 1e-18);
  EXPECT_DOUBLE_EQ(plan.leaf_tx_j, 0.0);
  EXPECT_DOUBLE_EQ(plan.hub_compute_j, 0.0);
  EXPECT_EQ(plan.bytes_leaf_to_hub, 0);
}

TEST(Partitioner, FullOffloadHandComputed) {
  const nn::Model m = tiny_model();
  const Partitioner part(m, simple_cost());
  const PartitionPlan plan = part.full_offload();
  EXPECT_DOUBLE_EQ(plan.leaf_compute_j, 0.0);
  // Ships the 16-element int8 input in the wire format (8-byte quant-params
  // header + 1 B/elem): 24 bytes = 192 bits at 100 pJ/b.
  EXPECT_EQ(plan.bytes_leaf_to_hub, 16 + nn::kActivationHeaderBytes);
  EXPECT_NEAR(plan.leaf_tx_j, 192.0 * 100e-12, 1e-18);
  EXPECT_NEAR(plan.hub_compute_j, 168.0 * 5e-12, 1e-18);
  EXPECT_NEAR(plan.hub_rx_j, 192.0 * 40e-12, 1e-18);
}

TEST(Partitioner, MidSplitShipsActivation) {
  const nn::Model m = tiny_model();
  const Partitioner part(m, simple_cost());
  const PartitionPlan plan = part.evaluate(1, 3);
  // Layer 0 on leaf (128 MACs), ships its 8-element output (+ wire header).
  EXPECT_NEAR(plan.leaf_compute_j, 128.0 * 20e-12, 1e-18);
  EXPECT_EQ(plan.bytes_leaf_to_hub, 8 + nn::kActivationHeaderBytes);
  EXPECT_NEAR(plan.hub_compute_j, 40.0 * 5e-12, 1e-18);
  EXPECT_EQ(plan.bytes_hub_to_cloud, 0);
}

TEST(Partitioner, CloudLegAddsUplinkCosts) {
  const nn::Model m = tiny_model();
  const Partitioner part(m, simple_cost());
  const PartitionPlan plan = part.evaluate(1, 2);
  // Layer-1 output, int8 wire format (header + 4 elements).
  EXPECT_EQ(plan.bytes_hub_to_cloud, 4 + nn::kActivationHeaderBytes);
  EXPECT_GT(plan.hub_tx_j, 0.0);
  EXPECT_NEAR(plan.cloud_compute_j, 8.0 * 1e-12, 1e-18);
  EXPECT_GT(plan.latency_s, 20e-3);  // uplink fixed latency dominates
}

TEST(Partitioner, LatencyAccountsComputeAndTransfer) {
  const nn::Model m = tiny_model();
  CostModel cm = simple_cost();
  cm.hub_cloud.fixed_latency_s = 0.0;
  cm.leaf_hub.fixed_latency_s = 0.0;
  const Partitioner part(m, cm);
  const PartitionPlan plan = part.evaluate(3, 3);
  EXPECT_NEAR(plan.latency_s, 168.0 / 50e6, 1e-12);
  const PartitionPlan offload = part.evaluate(0, 3);
  // The shipped input is the int8 wire format (8-byte header + 16 elements):
  // 192 bits over the 1 Mb/s bus, then 168 MACs on the hub.
  EXPECT_NEAR(offload.latency_s, 192.0 / 1e6 + 168.0 / 2e9, 1e-9);
}

TEST(Partitioner, OptimizerMatchesBruteForce) {
  const nn::Model m = nn::make_ecg_cnn1d();
  const Partitioner part(m, simple_cost());
  for (const auto obj : {Objective::kLeafEnergy, Objective::kTotalEnergy, Objective::kLatency}) {
    const PartitionPlan best = part.optimize(obj);
    // Independent brute force.
    double best_score = std::numeric_limits<double>::infinity();
    for (std::size_t s1 = 0; s1 <= m.layer_count(); ++s1) {
      for (std::size_t s2 = s1; s2 <= m.layer_count(); ++s2) {
        const PartitionPlan p = part.evaluate(s1, s2);
        const double score = obj == Objective::kLeafEnergy    ? p.leaf_energy_j()
                             : obj == Objective::kTotalEnergy ? p.total_energy_j()
                                                              : p.latency_s;
        best_score = std::min(best_score, score);
      }
    }
    const double got = obj == Objective::kLeafEnergy    ? best.leaf_energy_j()
                       : obj == Objective::kTotalEnergy ? best.total_energy_j()
                                                        : best.latency_s;
    EXPECT_NEAR(got, best_score, best_score * 1e-12);
  }
}

TEST(Partitioner, DeadlineForcesFasterPlan) {
  const nn::Model m = nn::make_kws_dscnn();
  CostModel cm = simple_cost();
  cm.leaf.macs_per_s = 5e6;  // slow leaf: local-only takes ~0.5 s
  const Partitioner part(m, cm);
  const PartitionPlan lax = part.optimize(Objective::kLeafEnergy, 10.0);
  const PartitionPlan tight = part.optimize(Objective::kLeafEnergy, 50e-3);
  EXPECT_TRUE(lax.feasible);
  EXPECT_TRUE(tight.feasible);
  EXPECT_LE(tight.latency_s, 50e-3);
  // The tight deadline can only cost more (or equal) leaf energy.
  EXPECT_GE(tight.leaf_energy_j(), lax.leaf_energy_j() - 1e-18);
}

TEST(Partitioner, ImpossibleDeadlineReportsInfeasible) {
  const nn::Model m = nn::make_kws_dscnn();
  const Partitioner part(m, simple_cost());
  const PartitionPlan plan = part.optimize(Objective::kLeafEnergy, 1e-9);
  EXPECT_FALSE(plan.feasible);
}

TEST(Partitioner, RejectsInvalidSplits) {
  const nn::Model m = tiny_model();
  const Partitioner part(m, simple_cost());
  EXPECT_THROW((void)part.evaluate(2, 1), std::invalid_argument);
  EXPECT_THROW((void)part.evaluate(0, 4), std::invalid_argument);
}

// ---- The architectural crossover (the paper's core argument) --------------------

TEST(Crossover, WiRPullsComputeToTheHub) {
  // With Wi-R-class transfer energy, full offload must beat local compute
  // on leaf energy for every reference model.
  comm::WiRLink wir;
  for (auto* make :
       {+[] { return nn::make_kws_dscnn(); }, +[] { return nn::make_ecg_cnn1d(); },
        +[] { return nn::make_vww_micronet(); }}) {
    const nn::Model m = make();
    CostModel cm = simple_cost();
    cm.leaf_hub = CostModel::leg_from_link(wir, 100.0 * kbps);
    const Partitioner part(m, cm);
    EXPECT_LT(part.full_offload().leaf_energy_j(), part.all_on_leaf().leaf_energy_j())
        << m.name();
  }
}

TEST(Crossover, BleKeepsComputeLocalForCompactModels) {
  // With BLE-class transfer energy (~15 nJ/b effective at these rates), the
  // KWS model is cheaper to run locally than to stream MFCC inputs out —
  // today's architecture, as the paper observes in Sec. I.
  comm::BleLink ble;
  const nn::Model m = nn::make_kws_dscnn();
  CostModel cm = simple_cost();
  cm.leaf_hub = CostModel::leg_from_link(ble, 10.0 * kbps);
  const Partitioner part(m, cm);
  EXPECT_GT(part.full_offload().leaf_energy_j(), part.all_on_leaf().leaf_energy_j());
}

TEST(Crossover, OptimalSplitMovesEarlierAsLinkCheapens) {
  const nn::Model m = nn::make_kws_dscnn();
  CostModel cheap = simple_cost();
  cheap.leaf_hub.sender_energy_per_bit_j = 100e-12;
  CostModel dear = simple_cost();
  dear.leaf_hub.sender_energy_per_bit_j = 15e-9;
  const auto split_cheap = Partitioner(m, cheap).optimize(Objective::kLeafEnergy).split_leaf_hub;
  const auto split_dear = Partitioner(m, dear).optimize(Objective::kLeafEnergy).split_leaf_hub;
  EXPECT_LE(split_cheap, split_dear);
}

// ---- ISA chooser ------------------------------------------------------------------

TEST(IsaChooser, PowerBreakdownAddsUp) {
  comm::WiRLink wir;
  IsaChooser chooser(wir, 20e-12, 10.0 * uW);
  const IsaMode mode{"adpcm", 64.0 * kbps, 1e6};
  const IsaEvaluation e = chooser.evaluate(mode);
  EXPECT_DOUBLE_EQ(e.sense_power_w, 10.0 * uW);
  EXPECT_NEAR(e.compute_power_w, 1e6 * 20e-12, 1e-12);
  EXPECT_GT(e.comm_power_w, 0.0);
  EXPECT_NEAR(e.total_power_w(), e.sense_power_w + e.compute_power_w + e.comm_power_w, 1e-15);
}

TEST(IsaChooser, PrefersCompressionOverRawOnWiR) {
  // Raw 256 kb/s vs ADPCM 64 kb/s at negligible compute: compression wins
  // whenever the link energy saved exceeds the codec energy.
  comm::WiRLink wir;
  IsaChooser chooser(wir, 20e-12, 300.0 * uW);
  const std::vector<IsaMode> modes = {
      {"raw", 256.0 * kbps, 0.0},
      {"adpcm 4:1", 64.0 * kbps, 0.5e6},
  };
  EXPECT_EQ(chooser.best_index(modes), 1u);
}

TEST(IsaChooser, HeavyLocalInferenceLosesOnUlpLeaf) {
  // Local VWW inference (~112 MMAC/s) at 20 pJ/MAC = 2.24 mW: worse than
  // shipping compressed video over Wi-R.
  comm::WiRLink wir;
  IsaChooser chooser(wir, 20e-12, 1.0 * mW);
  const std::vector<IsaMode> modes = {
      {"local inference", 60.0, 112e6},
      {"mjpeg + stream", 770.0 * kbps, 3e6},
  };
  EXPECT_EQ(chooser.best_index(modes), 1u);
}

TEST(IsaChooser, ZeroRateModeSkipsLink) {
  comm::WiRLink wir;
  IsaChooser chooser(wir, 20e-12, 5.0 * uW);
  const IsaEvaluation e = chooser.evaluate({"store-local", 0.0, 1000.0});
  EXPECT_DOUBLE_EQ(e.comm_power_w, 0.0);
}

// ---- glide-path budget ----------------------------------------------------------------

TEST(AdaptiveSplit, GlideMathExact) {
  energy::Battery b(1000.0, 3.0);  // 10800 J
  EXPECT_NEAR(glide_power_w(b, 0.0, 10800.0), 1.0, 1e-12);
  b.discharge(5400.0);
  EXPECT_NEAR(glide_power_w(b, 5400.0, 10800.0), 1.0, 1e-12);
  EXPECT_TRUE(std::isinf(glide_power_w(b, 20000.0, 10800.0)));
}

}  // namespace
}  // namespace iob::partition
