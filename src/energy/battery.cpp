#include "energy/battery.hpp"

#include <algorithm>

#include "common/expect.hpp"

namespace iob::energy {

Battery::Battery(double capacity_mah, double nominal_v, double usable_fraction)
    : capacity_mah_(capacity_mah),
      nominal_v_(nominal_v),
      usable_fraction_(usable_fraction),
      rated_energy_j_(units::battery_energy_j(capacity_mah, nominal_v)),
      remaining_j_(rated_energy_j_ * usable_fraction) {
  IOB_EXPECTS(capacity_mah > 0.0, "battery capacity must be positive");
  IOB_EXPECTS(nominal_v > 0.0, "battery voltage must be positive");
  IOB_EXPECTS(usable_fraction > 0.0 && usable_fraction <= 1.0, "usable fraction must be in (0, 1]");
}

Battery Battery::coin_cell_1000mah() { return Battery(1000.0, 3.0); }

double Battery::soc() const { return remaining_j_ / usable_energy_j(); }

double Battery::discharge(double energy_j) {
  IOB_EXPECTS(energy_j >= 0.0, "discharge energy must be non-negative");
  const double supplied = std::min(energy_j, remaining_j_);
  remaining_j_ -= supplied;
  return supplied;
}

double Battery::charge(double energy_j) {
  IOB_EXPECTS(energy_j >= 0.0, "charge energy must be non-negative");
  const double headroom = usable_energy_j() - remaining_j_;
  const double stored = std::min(energy_j, headroom);
  remaining_j_ += stored;
  return stored;
}

}  // namespace iob::energy
