#pragma once
/// \file battery.hpp
/// Battery model: capacity, state-of-charge integration, charge/discharge,
/// and depletion detection. Fig. 3 of the paper assumes a 1000 mAh coin
/// cell [31]; `Battery::coin_cell_1000mah()` provides exactly that.

#include "common/units.hpp"

namespace iob::energy {

class Battery {
 public:
  /// \param capacity_mah rated capacity (mAh), > 0
  /// \param nominal_v nominal terminal voltage (V), > 0
  /// \param usable_fraction fraction of rated energy extractable before
  ///        cutoff (models discharge-curve cutoff); in (0, 1].
  Battery(double capacity_mah, double nominal_v, double usable_fraction = 1.0);

  /// The paper's Fig. 3 battery: 1000 mAh high-capacity coin cell, 3 V.
  static Battery coin_cell_1000mah();

  /// Rated energy (J).
  [[nodiscard]] double rated_energy_j() const { return rated_energy_j_; }

  /// Usable energy when full (J).
  [[nodiscard]] double usable_energy_j() const { return rated_energy_j_ * usable_fraction_; }

  /// Remaining usable energy (J).
  [[nodiscard]] double remaining_j() const { return remaining_j_; }

  /// State of charge in [0, 1] relative to usable energy.
  [[nodiscard]] double soc() const;

  [[nodiscard]] bool depleted() const { return remaining_j_ <= 0.0; }

  /// Withdraw `energy_j` (>= 0). Returns the energy actually supplied
  /// (may be less than requested if the battery runs dry).
  double discharge(double energy_j);

  /// Deposit `energy_j` (>= 0) of harvested/charger energy; clamps at full.
  /// Returns the energy actually stored.
  double charge(double energy_j);

  [[nodiscard]] double capacity_mah() const { return capacity_mah_; }
  [[nodiscard]] double nominal_v() const { return nominal_v_; }

 private:
  double capacity_mah_;
  double nominal_v_;
  double usable_fraction_;
  double rated_energy_j_;
  double remaining_j_;
};

}  // namespace iob::energy
