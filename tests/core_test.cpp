// Unit tests for src/core: the platform power model (Fig. 1 numbers), the
// architecture comparison engine, the design-space explorer (Fig. 3 curve,
// perpetual boundary), the offload crossover, and report rendering.

#include <gtest/gtest.h>

#include <cmath>

#include "comm/ble_link.hpp"
#include "comm/wir_link.hpp"
#include "common/units.hpp"
#include "core/architecture.hpp"
#include "core/comparison.hpp"
#include "core/explorer.hpp"
#include "core/platform_power.hpp"
#include "core/report.hpp"
#include "nn/model_zoo.hpp"

namespace iob::core {
namespace {

using namespace iob::units;

class PowerModelTest : public ::testing::Test {
 protected:
  comm::BleLink ble_;
  comm::WiRLink wir_;
  PlatformPowerModel model_{ble_, wir_};
};

// ---- Fig. 1 component magnitudes -------------------------------------------------

TEST_F(PowerModelTest, ConventionalNodeMatchesFig1Left) {
  // Fig. 1 left: sensors ~100s uW, CPU ~mW, radio ~10s mW -> node total in
  // the tens-of-mW class for a heavyweight (camera/audio) node.
  const PowerBreakdown b = model_.evaluate(NodeArchitecture::kConventional,
                                           camera_node_workload());
  EXPECT_GT(b.compute_w, 1.0 * mW);    // "~mW" CPU
  EXPECT_GT(b.comm_w, 0.5 * mW);       // radio keep-alive floor alone is mW-class
  EXPECT_GT(b.node_total_w(), 10.0 * mW);
}

TEST_F(PowerModelTest, HumanInspiredNodeMatchesFig1Right) {
  // Fig. 1 right: sensors 10-50 uW, ISA ~100 uW, Wi-R ~100 uW for the
  // audio-class node.
  const PowerBreakdown b = model_.evaluate(NodeArchitecture::kHumanInspired,
                                           audio_pendant_workload());
  EXPECT_GT(b.sense_w, 10.0 * uW);
  EXPECT_LT(b.sense_w, 200.0 * uW);
  EXPECT_LT(b.compute_w, 150.0 * uW);  // ISA ~100 uW class
  EXPECT_LT(b.comm_w, 150.0 * uW);     // Wi-R ~100 uW class
  EXPECT_LT(b.node_total_w(), 500.0 * uW);
}

TEST_F(PowerModelTest, ReductionFactorIsLarge) {
  // The architectural win (Fig. 1: 10s of mW -> uW class). The factor is
  // workload-dependent: enormous where the radio/CPU dominated (ECG),
  // bounded by the sensor front-end where sensing dominates (camera).
  const ArchitectureComparison cmp(model_, energy::Battery::coin_cell_1000mah());
  EXPECT_GE(cmp.compare(ecg_patch_workload()).reduction_factor, 100.0);
  EXPECT_GE(cmp.compare(audio_pendant_workload()).reduction_factor, 8.0);
  EXPECT_GE(cmp.compare(camera_node_workload()).reduction_factor, 2.5);
}

TEST_F(PowerModelTest, HubInducedCostStaysBelowLeafSavings) {
  // Offloading must be a genuine system win, not cost-shifting: the hub-side
  // added power is far below what the leaf saves.
  for (const auto& w :
       {ecg_patch_workload(), audio_pendant_workload(), camera_node_workload()}) {
    const auto conv = model_.evaluate(NodeArchitecture::kConventional, w);
    const auto hi = model_.evaluate(NodeArchitecture::kHumanInspired, w);
    const double leaf_saving = conv.node_total_w() - hi.node_total_w();
    EXPECT_LT(hi.hub_induced_w, leaf_saving) << w.name;
  }
}

TEST_F(PowerModelTest, UlpSenseFactorApplied) {
  const auto w = ecg_patch_workload();
  const auto conv = model_.evaluate(NodeArchitecture::kConventional, w);
  const auto hi = model_.evaluate(NodeArchitecture::kHumanInspired, w);
  EXPECT_NEAR(hi.sense_w, conv.sense_w * model_.silicon().ulp_sense_factor, 1e-12);
}

// ---- Comparison engine --------------------------------------------------------------

TEST_F(PowerModelTest, ComparisonRowsCarryLifeClasses) {
  ArchitectureComparison cmp(model_, energy::Battery::coin_cell_1000mah());
  const auto rows = cmp.compare_reference_suite();
  ASSERT_EQ(rows.size(), 3u);
  for (const auto& r : rows) {
    EXPECT_GT(r.reduction_factor, 1.0);
    EXPECT_GT(r.human_inspired_life_days, r.conventional_life_days);
  }
  // ECG patch on Wi-R: perpetual (the paper's flagship outcome).
  EXPECT_EQ(rows[0].human_inspired_class, energy::LifeClass::kPerpetual);
  // Conventional camera node: day-class at best.
  EXPECT_LE(rows[2].conventional_life_days, 10.0);
}

// ---- Explorer (Fig. 3) -----------------------------------------------------------------

TEST(Explorer, LifeMonotoneDecreasingInRate) {
  DesignSpaceExplorer ex(energy::Battery::coin_cell_1000mah());
  double prev = std::numeric_limits<double>::infinity();
  for (const auto& p : ex.sweep(100.0, 10.0 * Mbps)) {
    EXPECT_LT(p.life_days, prev);
    prev = p.life_days;
  }
}

TEST(Explorer, Fig3HeadlineOperatingPoints) {
  // The three annotations of Fig. 3, as assertions:
  DesignSpaceExplorer ex(energy::Battery::coin_cell_1000mah());
  // biopotential patches (~6 kb/s): perpetual.
  EXPECT_EQ(ex.point(6.0 * kbps).life_class, energy::LifeClass::kPerpetual);
  // smart rings / fitness trackers (~40 kb/s): perpetual.
  EXPECT_EQ(ex.point(40.0 * kbps).life_class, energy::LifeClass::kPerpetual);
  // audio-class nodes at the full 4 Mb/s Wi-R rate: all-week.
  EXPECT_EQ(ex.point(4.0 * Mbps).life_class, energy::LifeClass::kAllWeek);
  // video-class nodes (~10 Mb/s): all-day/multi-day.
  const auto video = ex.point(10.0 * Mbps);
  EXPECT_TRUE(video.life_class == energy::LifeClass::kAllDay ||
              video.life_class == energy::LifeClass::kMultiDay)
      << energy::to_string(video.life_class);
}

TEST(Explorer, PerpetualBoundaryBetweenRingAndAudio) {
  DesignSpaceExplorer ex(energy::Battery::coin_cell_1000mah());
  const double boundary = ex.perpetual_boundary_bps();
  EXPECT_GT(boundary, 40.0 * kbps);   // rings still inside
  EXPECT_LT(boundary, 1.0 * Mbps);    // audio outside
  // Boundary property: just inside is perpetual, just outside is not.
  EXPECT_EQ(ex.point(boundary * 0.95).life_class, energy::LifeClass::kPerpetual);
  EXPECT_NE(ex.point(boundary * 1.05).life_class, energy::LifeClass::kPerpetual);
}

TEST(Explorer, CommPowerIsEbitTimesRate) {
  DesignSpaceExplorer ex(energy::Battery::coin_cell_1000mah());
  const auto p = ex.point(1.0 * Mbps);
  EXPECT_NEAR(p.comm_power_w, 100e-12 * 1e6, 1e-9);  // 100 uW at 1 Mb/s
}

TEST(Explorer, HarvestingCoversPerpetualClassNodes) {
  // Paper Sec. V: 10-200 uW indoor harvesting + Wi-R -> charging-free
  // biopotential/ring nodes.
  DesignSpaceExplorer ex(energy::Battery::coin_cell_1000mah());
  EXPECT_LT(ex.required_harvest_w(6.0 * kbps), 50.0 * uW);
  EXPECT_LT(ex.required_harvest_w(40.0 * kbps), 200.0 * uW);
  // But a video node cannot be harvest-covered indoors.
  EXPECT_GT(ex.required_harvest_w(10.0 * Mbps), 1.0 * mW);
}

TEST(Explorer, BleEnergyPerBitDestroysThePlateau) {
  // Same sweep with BLE-class 10 nJ/b: the perpetual region shrinks by
  // orders of magnitude — the quantitative reason Wi-R is "the missing
  // link".
  DesignSpaceExplorer wir(energy::Battery::coin_cell_1000mah(), {}, 100e-12);
  DesignSpaceExplorer ble(energy::Battery::coin_cell_1000mah(), {}, 10e-9);
  EXPECT_GT(wir.perpetual_boundary_bps() / ble.perpetual_boundary_bps(), 2.0);
  EXPECT_GT(wir.point(1.0 * Mbps).life_days, 3.0 * ble.point(1.0 * Mbps).life_days);
}

// ---- Offload crossover --------------------------------------------------------------------

TEST(Crossover, ThresholdSitsBetweenWiRAndBle) {
  // The link energy/bit at which offload stops paying must separate
  // Wi-R (100 pJ/b) from BLE (~15 nJ/b) for every reference model — i.e.
  // Wi-R enables the human-inspired architecture, BLE does not.
  partition::CostModel base;
  base.leaf_hub = {"sweep", 1e6, 0.0, 40e-12, 1e-4};
  base.hub_cloud = partition::CostModel::default_uplink();
  for (auto* make :
       {+[] { return nn::make_kws_dscnn(); }, +[] { return nn::make_ecg_cnn1d(); },
        +[] { return nn::make_vww_micronet(); }}) {
    const nn::Model m = make();
    const double cross = offload_crossover_energy_per_bit_j(m, base);
    EXPECT_GT(cross, 100e-12) << m.name();
    EXPECT_LT(cross, 15e-9) << m.name();
  }
}

// ---- Reports --------------------------------------------------------------------------------

TEST(Report, ComparisonTableRendersAllWorkloads) {
  comm::BleLink ble;
  comm::WiRLink wir;
  PlatformPowerModel model(ble, wir);
  ArchitectureComparison cmp(model, energy::Battery::coin_cell_1000mah());
  const std::string s = render_comparison(cmp.compare_reference_suite());
  EXPECT_NE(s.find("ECG patch"), std::string::npos);
  EXPECT_NE(s.find("audio pendant"), std::string::npos);
  EXPECT_NE(s.find("camera node"), std::string::npos);
  EXPECT_NE(s.find("human-inspired"), std::string::npos);
  EXPECT_NE(s.find("reduction"), std::string::npos);
}

TEST(Report, Fig3TableRendersClasses) {
  DesignSpaceExplorer ex(energy::Battery::coin_cell_1000mah());
  const std::string s = render_fig3(ex.sweep(1.0 * kbps, 10.0 * Mbps, 2));
  EXPECT_NE(s.find("perpetual"), std::string::npos);
  EXPECT_NE(s.find("data rate"), std::string::npos);
}

TEST(Architecture, WorkloadSpecsAreSane) {
  for (const auto& w :
       {ecg_patch_workload(), audio_pendant_workload(), camera_node_workload()}) {
    EXPECT_GT(w.raw_rate_bps, 0.0);
    EXPECT_GT(w.isa_output_rate_bps, 0.0);
    EXPECT_LT(w.isa_output_rate_bps, w.raw_rate_bps);  // ISA reduces traffic
    EXPECT_LT(w.result_rate_bps, w.isa_output_rate_bps);
    EXPECT_GT(w.inference_macs_per_s, w.isa_macs_per_s);  // model >> codec
  }
}

}  // namespace
}  // namespace iob::core
