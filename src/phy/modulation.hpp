#pragma once
/// \file modulation.hpp
/// Modulation schemes and their BER-vs-SNR behaviour. EQS-HBC links use
/// simple broadband signalling (OOK/NRZ voltage-mode, as in the BodyWire
/// transceiver [20]); BLE uses GFSK. Packet-level loss in `comm/` derives
/// from these curves.

namespace iob::phy {

enum class Modulation {
  kOok,    ///< on-off keying / NRZ voltage mode (Wi-R class)
  kBpsk,   ///< coherent binary PSK (best-case reference)
  kGfsk,   ///< Gaussian FSK, non-coherent (BLE class)
};

/// Gaussian tail function Q(x) = P(N(0,1) > x).
double q_function(double x);

/// Bit error rate at the given *per-bit* SNR (linear, Eb/N0-style) for the
/// modulation. snr_linear >= 0.
double bit_error_rate(Modulation mod, double snr_linear);

/// Smallest per-bit SNR (linear) achieving `target_ber` (0 < target < 0.5),
/// found by bisection on the monotone BER curve.
double required_snr(Modulation mod, double target_ber);

/// Probability that an `n_bits` packet arrives with zero bit errors under
/// independent bit errors.
double packet_success_probability(double ber, unsigned n_bits);

/// Effective signal-to-(noise+interference) ratio (linear) when a noise SNR
/// combines with an interference SIR: 1/SNIR = 1/SNR + 1/SIR. The BodyWire
/// transceiver [20] demonstrates EQS-HBC at -30 dB SIR via time-domain
/// interference rejection; `rejection_db` models such a canceller by
/// boosting the effective SIR before combining.
double effective_snir(double snr_linear, double sir_linear, double rejection_db = 0.0);

/// Same in dB domain.
double effective_snir_db(double snr_db, double sir_db, double rejection_db = 0.0);

}  // namespace iob::phy
