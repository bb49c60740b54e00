// Unit tests for src/common: units, interpolation, table rendering.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "common/expect.hpp"
#include "common/interp.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace iob {
namespace {

using common::AnchorTable;
using common::LinearInterpolator;
using common::LogLogInterpolator;

// ---- units ------------------------------------------------------------------

TEST(Units, BatteryEnergy) {
  // 1000 mAh at 3 V = 1 Ah * 3 V * 3600 s = 10.8 kJ (the Fig. 3 battery).
  EXPECT_DOUBLE_EQ(units::battery_energy_j(1000.0, 3.0), 10800.0);
}

TEST(Units, DbRoundTrip) {
  EXPECT_NEAR(units::from_db(units::to_db(123.456)), 123.456, 1e-9);
  EXPECT_NEAR(units::to_db(100.0), 20.0, 1e-12);
  EXPECT_NEAR(units::to_db_voltage(10.0), 20.0, 1e-12);
}

TEST(Units, DbmConversions) {
  EXPECT_NEAR(units::to_dbm(1e-3), 0.0, 1e-12);          // 1 mW = 0 dBm
  EXPECT_NEAR(units::from_dbm(-30.0), 1e-6, 1e-15);      // -30 dBm = 1 uW
  EXPECT_NEAR(units::to_dbm(units::from_dbm(-95.0)), -95.0, 1e-9);
}

TEST(Units, TimeConstants) {
  EXPECT_DOUBLE_EQ(units::week, 7.0 * units::day);
  EXPECT_GT(units::year, 365.0 * units::day);
  EXPECT_LT(units::year, 366.0 * units::day);
}

// ---- IOB_EXPECTS ------------------------------------------------------------

TEST(Expect, ThrowsOnViolation) {
  EXPECT_THROW(
      [] { IOB_EXPECTS(false, "must throw"); }(), std::invalid_argument);
  EXPECT_THROW(
      [] { IOB_ENSURES(false, "must throw"); }(), std::logic_error);
  EXPECT_NO_THROW([] { IOB_EXPECTS(true, ""); }());
}

// ---- LinearInterpolator -----------------------------------------------------

TEST(LinearInterp, ExactAtAnchors) {
  LinearInterpolator f({{0.0, 1.0}, {1.0, 3.0}, {2.0, 2.0}});
  EXPECT_DOUBLE_EQ(f(0.0), 1.0);
  EXPECT_DOUBLE_EQ(f(1.0), 3.0);
  EXPECT_DOUBLE_EQ(f(2.0), 2.0);
}

TEST(LinearInterp, Midpoints) {
  LinearInterpolator f({{0.0, 0.0}, {2.0, 4.0}});
  EXPECT_DOUBLE_EQ(f(1.0), 2.0);
  EXPECT_DOUBLE_EQ(f(0.5), 1.0);
}

TEST(LinearInterp, ExtrapolatesTerminalSlopes) {
  LinearInterpolator f({{0.0, 0.0}, {1.0, 1.0}});
  EXPECT_DOUBLE_EQ(f(2.0), 2.0);    // continues slope 1
  EXPECT_DOUBLE_EQ(f(-1.0), -1.0);  // continues slope 1 below
}

TEST(LinearInterp, RejectsBadTables) {
  EXPECT_THROW(LinearInterpolator({{0.0, 1.0}}), std::invalid_argument);
  EXPECT_THROW(LinearInterpolator({{1.0, 1.0}, {1.0, 2.0}}), std::invalid_argument);
  EXPECT_THROW(LinearInterpolator({{2.0, 1.0}, {1.0, 2.0}}), std::invalid_argument);
}

// ---- LogLogInterpolator -----------------------------------------------------

TEST(LogLogInterp, PowerLawIsExact) {
  // y = x^2 through two anchors: every point between them follows the law.
  LogLogInterpolator f({{1.0, 1.0}, {100.0, 10000.0}});
  EXPECT_NEAR(f(10.0), 100.0, 1e-9);
  EXPECT_NEAR(f(3.0), 9.0, 1e-9);
}

TEST(LogLogInterp, PiecewiseExponentChanges) {
  // Slope 1 then slope 3: y = x below 10, y = 10 * (x / 10)^3 above.
  LogLogInterpolator f({{1.0, 1.0}, {10.0, 10.0}, {100.0, 10000.0}});
  EXPECT_NEAR(f(3.0), 3.0, 1e-9);
  EXPECT_NEAR(f(30.0), 270.0, 1e-9);
}

TEST(LogLogInterp, RejectsNonPositive) {
  EXPECT_THROW(LogLogInterpolator({{0.0, 1.0}, {1.0, 2.0}}), std::invalid_argument);
  EXPECT_THROW(LogLogInterpolator({{1.0, -1.0}, {2.0, 2.0}}), std::invalid_argument);
  LogLogInterpolator f({{1.0, 1.0}, {2.0, 2.0}});
  EXPECT_THROW((void)f(0.0), std::invalid_argument);
}

TEST(LogLogInterp, MonotoneTablesInterpolateMonotonically) {
  LogLogInterpolator f({{1.0, 2.0}, {10.0, 20.0}, {100.0, 500.0}});
  double prev = 0.0;
  for (double x = 1.0; x <= 100.0; x *= 1.3) {
    const double y = f(x);
    EXPECT_GT(y, prev);
    prev = y;
  }
}

// ---- si_format --------------------------------------------------------------

TEST(SiFormat, PicksPrefixes) {
  EXPECT_EQ(common::si_format(415e-9, "W"), "415 nW");     // the paper's 415 nW node
  EXPECT_EQ(common::si_format(100e-12, "J/b"), "100 pJ/b"); // Wi-R figure of merit
  EXPECT_EQ(common::si_format(4e6, "b/s"), "4.00 Mb/s");
  EXPECT_EQ(common::si_format(0.0, "W"), "0 W");
}

TEST(SiFormat, SignificantDigits) {
  EXPECT_EQ(common::si_format(1.23456e-3, "W", 3), "1.23 mW");
  EXPECT_EQ(common::si_format(12.3456e-3, "W", 3), "12.3 mW");
  EXPECT_EQ(common::si_format(123.456e-3, "W", 3), "123 mW");
}

TEST(SiFormat, HandlesInfinity) {
  EXPECT_EQ(common::si_format(std::numeric_limits<double>::infinity(), "s"), "inf s");
}

// ---- Table ------------------------------------------------------------------

TEST(Table, RendersAlignedRows) {
  common::Table t({"a", "bbbb"});
  t.add_row({"xx", "y"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| a  | bbbb |"), std::string::npos);
  EXPECT_NE(s.find("| xx | y    |"), std::string::npos);
}

TEST(Table, RejectsMismatchedRow) {
  common::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, CountsRows) {
  common::Table t({"a"});
  t.add_row({"1"});
  t.add_rule();
  t.add_row({"2"});
  EXPECT_EQ(t.row_count(), 3u);  // rules count as rows internally
}

}  // namespace
}  // namespace iob
