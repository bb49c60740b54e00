// Unit tests for src/energy: battery, harvester
// (with diurnal profiles), sensing-power survey, battery-life
// classification.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/units.hpp"
#include "energy/battery.hpp"
#include "energy/harvester.hpp"
#include "energy/lifetime.hpp"
#include "energy/sensing_power.hpp"
#include "sim/rng.hpp"

namespace iob::energy {
namespace {

using namespace iob::units;

// ---- Battery ----------------------------------------------------------------

TEST(Battery, CoinCellMatchesFig3Assumption) {
  const Battery b = Battery::coin_cell_1000mah();
  EXPECT_DOUBLE_EQ(b.rated_energy_j(), 10800.0);
  EXPECT_DOUBLE_EQ(b.capacity_mah(), 1000.0);
  EXPECT_DOUBLE_EQ(b.soc(), 1.0);
}

TEST(Battery, DischargeTracksSoc) {
  Battery b(100.0, 3.0);  // 1080 J
  EXPECT_DOUBLE_EQ(b.discharge(540.0), 540.0);
  EXPECT_NEAR(b.soc(), 0.5, 1e-12);
  EXPECT_FALSE(b.depleted());
}

TEST(Battery, DischargeClampsAtEmpty) {
  Battery b(1.0, 3.0);  // 10.8 J
  EXPECT_DOUBLE_EQ(b.discharge(100.0), 10.8);
  EXPECT_TRUE(b.depleted());
  EXPECT_DOUBLE_EQ(b.discharge(1.0), 0.0);
}

TEST(Battery, ChargeClampsAtFull) {
  Battery b(1.0, 3.0);
  b.discharge(5.0);
  EXPECT_DOUBLE_EQ(b.charge(100.0), 5.0);
  EXPECT_DOUBLE_EQ(b.soc(), 1.0);
}

TEST(Battery, UsableFractionReducesCapacity) {
  Battery b(100.0, 3.0, 0.8);
  EXPECT_DOUBLE_EQ(b.usable_energy_j(), 1080.0 * 0.8);
  EXPECT_DOUBLE_EQ(b.remaining_j(), 864.0);
}

TEST(Battery, RejectsBadConstruction) {
  EXPECT_THROW(Battery(0.0, 3.0), std::invalid_argument);
  EXPECT_THROW(Battery(10.0, -1.0), std::invalid_argument);
  EXPECT_THROW(Battery(10.0, 3.0, 0.0), std::invalid_argument);
  EXPECT_THROW(Battery(10.0, 3.0, 1.5), std::invalid_argument);
}

// ---- Harvester --------------------------------------------------------------

TEST(Harvester, AverageIsMeanTimesAvailability) {
  HarvesterParams p;
  p.mean_power_w = 100.0 * uW;
  p.availability = 0.5;
  Harvester h(p);
  EXPECT_DOUBLE_EQ(h.average_power_w(), 50.0 * uW);
}

TEST(Harvester, SamplesAreNonNegativeAndAverageOut) {
  HarvesterParams p;
  p.mean_power_w = 50.0 * uW;
  p.availability = 0.7;
  p.relative_sigma = 0.3;
  Harvester h(p);
  sim::Rng rng(5);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double s = h.sample_power_w(rng);
    EXPECT_GE(s, 0.0);
    sum += s;
  }
  EXPECT_NEAR(sum / n, h.average_power_w(), 2.0 * uW);
}

TEST(Harvester, IndoorWindowMatchesPaper) {
  // Paper Sec. V: 10-200 uW indoors; defaults must sit inside that window.
  Harvester h;
  EXPECT_GE(h.params().mean_power_w, 10.0 * uW);
  EXPECT_LE(h.params().mean_power_w, 200.0 * uW);
}

// ---- SensingPowerModel --------------------------------------------------------

TEST(SensingPower, HitsSurveyAnchors) {
  SensingPowerModel m;
  EXPECT_NEAR(m.power_w(1.0 * kbps), 2.0 * uW, 1e-9);
  EXPECT_NEAR(m.power_w(10.0 * kbps), 10.0 * uW, 1e-8);
  EXPECT_NEAR(m.power_w(10.0 * Mbps), 80.0 * mW, 1e-5);
}

TEST(SensingPower, MonotoneIncreasing) {
  SensingPowerModel m;
  double prev = 0.0;
  for (double r = 100.0; r <= 10e6; r *= 1.5) {
    const double p = m.power_w(r);
    EXPECT_GT(p, prev);
    prev = p;
  }
  EXPECT_THROW((void)m.power_w(0.0), std::invalid_argument);
}

// ---- Lifetime ----------------------------------------------------------------

TEST(Lifetime, BatteryLifeMath) {
  const Battery b = Battery::coin_cell_1000mah();  // 10.8 kJ
  EXPECT_NEAR(battery_life_days(b, 125.0 * uW), 1000.0, 1.0);
  EXPECT_TRUE(std::isinf(battery_life_s(b, 50.0 * uW, 60.0 * uW)));
}

TEST(Lifetime, ClassifyBuckets) {
  EXPECT_EQ(classify(4.0 * hour), LifeClass::kHours3to5);
  EXPECT_EQ(classify(8.0 * hour), LifeClass::kSubDay);
  EXPECT_EQ(classify(1.5 * day), LifeClass::kAllDay);
  EXPECT_EQ(classify(4.0 * day), LifeClass::kMultiDay);
  EXPECT_EQ(classify(2.0 * week), LifeClass::kAllWeek);
  EXPECT_EQ(classify(90.0 * day), LifeClass::kMultiMonth);
  EXPECT_EQ(classify(2.0 * year), LifeClass::kPerpetual);
}

TEST(Lifetime, PerpetualThresholdIsOneYear) {
  EXPECT_FALSE(is_perpetual(360.0 * day));
  EXPECT_TRUE(is_perpetual(370.0 * day));
}

TEST(Lifetime, PowerBudgetInvertsLife) {
  const Battery b = Battery::coin_cell_1000mah();
  const double budget = power_budget_w(b, year);
  EXPECT_NEAR(battery_life_s(b, budget), year, 1.0);
  // The Fig. 3 perpetual region boundary: ~342 uW for 1000 mAh @ 3 V.
  EXPECT_NEAR(budget, 342.0 * uW, 5.0 * uW);
}

TEST(Lifetime, LabelsMatchFigureVocabulary) {
  EXPECT_EQ(to_string(LifeClass::kAllWeek), "all-week");
  EXPECT_EQ(to_string(LifeClass::kPerpetual), "perpetual (>1 yr)");
  EXPECT_EQ(to_string(LifeClass::kHours3to5), "3-5 hr");
}

// ---- Diurnal harvesting ----------------------------------------------------------------

TEST(Diurnal, OfficeProfileShape) {
  const auto profile = energy::office_diurnal_profile();
  ASSERT_EQ(profile.size(), 24u);
  EXPECT_DOUBLE_EQ(profile[3], 0.0);   // night
  EXPECT_DOUBLE_EQ(profile[12], 1.0);  // office hours
}

TEST(Diurnal, AverageIncludesProfileMean) {
  energy::HarvesterParams p;
  p.mean_power_w = 100.0 * uW;
  p.availability = 1.0;
  p.hourly_profile = energy::office_diurnal_profile();
  energy::Harvester h(p);
  double mean = 0.0;
  for (const double v : p.hourly_profile) mean += v;
  mean /= 24.0;
  EXPECT_NEAR(h.average_power_w(), 100.0 * uW * mean, 1e-12);
}

TEST(Diurnal, NightYieldsNothing) {
  energy::HarvesterParams p;
  p.mean_power_w = 100.0 * uW;
  p.availability = 1.0;
  p.relative_sigma = 0.0;
  p.hourly_profile = energy::office_diurnal_profile();
  energy::Harvester h(p);
  sim::Rng rng(1);
  // 03:00: zero; 12:00: full.
  EXPECT_DOUBLE_EQ(h.sample_power_w(rng, 3.0 * 3600.0), 0.0);
  EXPECT_NEAR(h.sample_power_w(rng, 12.0 * 3600.0), 100.0 * uW, 1e-12);
  // Wraps modulo 24 h.
  EXPECT_DOUBLE_EQ(h.profile_at(27.0 * 3600.0), h.profile_at(3.0 * 3600.0));
}

TEST(Diurnal, RejectsMalformedProfiles) {
  energy::HarvesterParams p;
  p.hourly_profile = {0.5, 0.5};  // wrong length
  EXPECT_THROW(energy::Harvester{p}, std::invalid_argument);
  p.hourly_profile.assign(24, 1.5);  // out of range
  EXPECT_THROW(energy::Harvester{p}, std::invalid_argument);
}

}  // namespace
}  // namespace iob::energy
