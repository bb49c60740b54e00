#include "phy/interference.hpp"

#include <cmath>

#include "common/expect.hpp"
#include "common/units.hpp"

namespace iob::phy {

InterferenceField::InterferenceField(SirLevel level) : level_(level) {
  IOB_EXPECTS(level_.duty_cycle >= 0.0 && level_.duty_cycle <= 1.0,
              "aggressor duty cycle must be in [0, 1]");
  IOB_EXPECTS(level_.rejection_db >= 0.0, "interference rejection cannot be negative");
  if (!active()) return;
  const double n = static_cast<double>(level_.aggressors);
  const double d = level_.duty_cycle;
  // Independent on/off aggressors: collision whenever any is on.
  p_active_ = 1.0 - std::pow(1.0 - d, n);
  // Mean simultaneously-active count, conditioned on >= 1 active. Power
  // adds across simultaneous aggressors, so the conditional SIR degrades by
  // 10*log10 of that mean.
  const double mean_on_given_any = n * d / p_active_;
  sir_agg_db_ = level_.aggressor_sir_db - units::to_db(mean_on_given_any);
}

double InterferenceField::effective_snir_db(double snr_db) const {
  if (!active()) return snr_db;
  return phy::effective_snir_db(snr_db, sir_agg_db_, level_.rejection_db);
}

}  // namespace iob::phy
