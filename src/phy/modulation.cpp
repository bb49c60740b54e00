#include "phy/modulation.hpp"

#include <cmath>

#include "common/expect.hpp"
#include "common/units.hpp"

namespace iob::phy {

double q_function(double x) { return 0.5 * std::erfc(x / std::sqrt(2.0)); }

double bit_error_rate(Modulation mod, double snr_linear) {
  IOB_EXPECTS(snr_linear >= 0.0, "SNR must be non-negative");
  switch (mod) {
    case Modulation::kOok:
      // Coherent OOK with threshold detection: Q(sqrt(SNR/2)).
      return q_function(std::sqrt(snr_linear / 2.0));
    case Modulation::kBpsk:
      // Coherent BPSK: Q(sqrt(2*SNR)).
      return q_function(std::sqrt(2.0 * snr_linear));
    case Modulation::kGfsk:
      // Non-coherent binary FSK: 0.5 * exp(-SNR/2); good GFSK approximation.
      return 0.5 * std::exp(-snr_linear / 2.0);
  }
  return 0.5;  // unreachable
}

double required_snr(Modulation mod, double target_ber) {
  IOB_EXPECTS(target_ber > 0.0 && target_ber < 0.5, "target BER must be in (0, 0.5)");
  double lo = 0.0, hi = 1.0;
  while (bit_error_rate(mod, hi) > target_ber) {
    hi *= 2.0;
    IOB_ENSURES(hi < 1e12, "required SNR out of plausible range");
  }
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (bit_error_rate(mod, mid) > target_ber) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

double packet_success_probability(double ber, unsigned n_bits) {
  IOB_EXPECTS(ber >= 0.0 && ber <= 1.0, "BER must be in [0, 1]");
  // log-domain to stay stable for long packets.
  if (ber >= 1.0) return 0.0;
  return std::exp(static_cast<double>(n_bits) * std::log1p(-ber));
}

double effective_snir(double snr_linear, double sir_linear, double rejection_db) {
  IOB_EXPECTS(snr_linear > 0.0 && sir_linear > 0.0, "SNR and SIR must be positive");
  IOB_EXPECTS(rejection_db >= 0.0, "interference rejection cannot be negative");
  const double sir_eff = sir_linear * units::from_db(rejection_db);
  return 1.0 / (1.0 / snr_linear + 1.0 / sir_eff);
}

double effective_snir_db(double snr_db, double sir_db, double rejection_db) {
  return units::to_db(
      effective_snir(units::from_db(snr_db), units::from_db(sir_db), rejection_db));
}

}  // namespace iob::phy
