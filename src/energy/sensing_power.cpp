#include "energy/sensing_power.hpp"

#include "common/expect.hpp"

namespace iob::energy {

namespace {

common::AnchorTable survey_defaults() {
  using namespace iob::units;
  // (data rate bps, sensing power W). See DESIGN.md Sec. 4 for provenance:
  // biopotential AFEs (sub-10 uW at kb/s), inertial/optical PPG combos,
  // always-on audio codecs (~mW), ULP image sensors (tens of mW at Mb/s+).
  return {
      {100.0 * bps, 0.5 * uW}, {1.0 * kbps, 2.0 * uW},  {10.0 * kbps, 10.0 * uW},
      {100.0 * kbps, 150.0 * uW}, {1.0 * Mbps, 3.0 * mW}, {4.0 * Mbps, 15.0 * mW},
      {10.0 * Mbps, 80.0 * mW},
  };
}

}  // namespace

SensingPowerModel::SensingPowerModel() : interp_(survey_defaults()) {}

double SensingPowerModel::power_w(double rate_bps) const {
  IOB_EXPECTS(rate_bps > 0.0, "data rate must be positive");
  return interp_(rate_bps);
}

}  // namespace iob::energy
