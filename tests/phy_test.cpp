// Unit tests for src/phy: EQS-HBC channel physics, RF/NFMI baselines,
// noise, modulation BER, the security leakage models, HBC safety limits
// (paper ref [19]) and interference robustness (paper ref [20]).

#include <gtest/gtest.h>

#include <cmath>

#include "common/units.hpp"
#include "phy/eqs_channel.hpp"
#include "phy/leakage.hpp"
#include "phy/modulation.hpp"
#include "phy/nfmi_channel.hpp"
#include "phy/noise.hpp"
#include "phy/rf_channel.hpp"
#include "phy/safety.hpp"

namespace iob::phy {
namespace {

using namespace iob::units;

// ---- EqsChannel -------------------------------------------------------------

TEST(EqsChannel, FlatBandGainMatchesCapacitanceRatios) {
  EqsChannelParams p;
  EqsChannel ch(p);
  const double forward = p.c_couple_f / (p.c_couple_f + p.c_load_f);
  const double ret = p.c_return_f / (p.c_return_f + p.c_body_f);
  EXPECT_NEAR(ch.flat_band_gain(), forward * ret, 1e-15);
}

TEST(EqsChannel, FlatBandLossIsTensOfDb) {
  // Measured capacitive EQS-HBC flat-band losses sit around -55..-75 dB.
  EqsChannel ch;
  EXPECT_LT(ch.flat_band_gain_db(), -50.0);
  EXPECT_GT(ch.flat_band_gain_db(), -80.0);
}

TEST(EqsChannel, HighZResponseIsFlatAcrossEqsBand) {
  // Key Maity et al. result: with high-Z termination the band
  // 100 kHz..30 MHz is flat to within a dB.
  EqsChannel ch;
  const double g1 = ch.gain_db(100.0 * kHz, 1.0);
  const double g2 = ch.gain_db(1.0 * MHz, 1.0);
  const double g3 = ch.gain_db(30.0 * MHz, 1.0);
  EXPECT_NEAR(g1, g2, 1.0);
  EXPECT_NEAR(g2, g3, 1.0);
}

TEST(EqsChannel, FiftyOhmTerminationRisesWithFrequency) {
  // The classic 50-ohm measurement underestimates the channel: gain climbs
  // ~20 dB/decade instead of being flat.
  EqsChannel ch;
  const double g_100k = ch.gain_db(100.0 * kHz, 1.0, Termination::kFiftyOhm);
  const double g_1m = ch.gain_db(1.0 * MHz, 1.0, Termination::kFiftyOhm);
  const double g_10m = ch.gain_db(10.0 * MHz, 1.0, Termination::kFiftyOhm);
  EXPECT_NEAR(g_1m - g_100k, 20.0, 1.5);
  EXPECT_NEAR(g_10m - g_1m, 20.0, 1.5);
}

TEST(EqsChannel, FiftyOhmMuchWorseThanHighZInBand) {
  EqsChannel ch;
  EXPECT_LT(ch.gain_db(1.0 * MHz, 1.0, Termination::kFiftyOhm),
            ch.gain_db(1.0 * MHz, 1.0, Termination::kHighImpedance) - 20.0);
}

TEST(EqsChannel, DistanceLossIsMild) {
  // "Body as a wire": whole-body path costs only a few dB.
  EqsChannel ch;
  const double near = ch.gain_db(1.0 * MHz, 0.1);
  const double far = ch.gain_db(1.0 * MHz, 1.8);  // head to ankle
  EXPECT_LT(near - far, 4.0);
  EXPECT_GT(near - far, 0.0);  // but monotone
}

TEST(EqsChannel, CornerFrequencyBelowBand) {
  EqsChannel ch;
  EXPECT_LT(ch.corner_frequency_hz(), 100.0 * kHz);
}

TEST(EqsChannel, RejectsBadParams) {
  EqsChannelParams p;
  p.c_body_f = 0.0;
  EXPECT_THROW(EqsChannel{p}, std::invalid_argument);
  EqsChannel ch;
  EXPECT_THROW((void)ch.voltage_gain(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)ch.voltage_gain(1e6, -1.0), std::invalid_argument);
}

// ---- RfChannel --------------------------------------------------------------

TEST(RfChannel, FriisAtOneMeter24GHz) {
  // (4*pi*1m/0.125m)^2 ~ 40.2 dB.
  RfChannel ch;
  EXPECT_NEAR(ch.free_space_path_loss_db(1.0), 40.2, 0.5);
}

TEST(RfChannel, FreeSpaceSlopeIs20DbPerDecade) {
  RfChannel ch;
  EXPECT_NEAR(ch.free_space_path_loss_db(10.0) - ch.free_space_path_loss_db(1.0), 20.0, 1e-9);
}

TEST(RfChannel, OnBodyLossExceedsFreeSpace) {
  RfChannel ch;
  for (const double d : {0.5, 1.0, 1.5, 2.0}) {
    EXPECT_GT(ch.on_body_path_loss_db(d), ch.free_space_path_loss_db(d));
  }
}

TEST(RfChannel, ReceivedPowerFollowsLoss) {
  const double rx = RfChannel::received_power_w(1e-3, 40.0);
  EXPECT_NEAR(rx, 1e-7, 1e-12);
}

// ---- NfmiChannel ------------------------------------------------------------

TEST(NfmiChannel, NearFieldRollsOff60DbPerDecade) {
  NfmiChannel ch;
  // Both distances inside the near field at 10.6 MHz (boundary ~4.5 m).
  EXPECT_NEAR(ch.gain_db(0.1) - ch.gain_db(1.0), 60.0, 1e-6);
}

TEST(NfmiChannel, BoundaryMatchesLambdaOver2Pi) {
  NfmiChannel ch;
  EXPECT_NEAR(ch.near_field_boundary_m(), 299792458.0 / 10.6e6 / (2 * M_PI), 1e-6);
}

TEST(NfmiChannel, RadiativeRegimeSlopeBeyondBoundary) {
  NfmiChannel ch;
  const double b = ch.near_field_boundary_m();
  EXPECT_NEAR(ch.gain_db(2.0 * b) - ch.gain_db(20.0 * b), 20.0, 1e-6);
}

// ---- Noise ------------------------------------------------------------------

TEST(Noise, ThermalFloorMinus174DbmPerHz) {
  EXPECT_NEAR(units::to_dbm(thermal_noise_power_w(1.0)), -174.0, 0.2);
  EXPECT_NEAR(units::to_dbm(thermal_noise_power_w(1e6)), -114.0, 0.2);
}

TEST(Noise, VoltageNoiseScalesWithSqrtRB) {
  const double v1 = thermal_noise_voltage_v(50.0, 1e6);
  const double v2 = thermal_noise_voltage_v(200.0, 1e6);
  EXPECT_NEAR(v2 / v1, 2.0, 1e-9);
  const double v3 = thermal_noise_voltage_v(50.0, 4e6);
  EXPECT_NEAR(v3 / v1, 2.0, 1e-9);
}

TEST(Noise, ReceiverSnr) {
  Receiver rx{1e6, 10.0, 290.0};
  const double noise = rx.noise_power_w();
  EXPECT_NEAR(units::to_dbm(noise), -104.0, 0.3);  // -114 dBm + 10 dB NF
  EXPECT_NEAR(rx.snr_db(noise * 100.0), 20.0, 1e-9);
}

// ---- Modulation -------------------------------------------------------------

TEST(Modulation, QFunctionAnchors) {
  EXPECT_NEAR(q_function(0.0), 0.5, 1e-12);
  EXPECT_NEAR(q_function(1.0), 0.1587, 1e-3);
  EXPECT_NEAR(q_function(3.0), 1.35e-3, 1e-4);
}

TEST(Modulation, BerDecreasesWithSnr) {
  for (const auto mod : {Modulation::kOok, Modulation::kBpsk, Modulation::kGfsk}) {
    double prev = 1.0;
    for (double snr = 0.1; snr < 1000.0; snr *= 2.0) {
      const double ber = bit_error_rate(mod, snr);
      EXPECT_LE(ber, prev);
      prev = ber;
    }
  }
}

TEST(Modulation, BpskBeatsOokBeatsNone) {
  // At equal SNR, coherent BPSK outperforms OOK.
  const double snr = 10.0;
  EXPECT_LT(bit_error_rate(Modulation::kBpsk, snr), bit_error_rate(Modulation::kOok, snr));
}

TEST(Modulation, RequiredSnrInvertsBlack) {
  for (const auto mod : {Modulation::kOok, Modulation::kBpsk, Modulation::kGfsk}) {
    for (const double target : {1e-3, 1e-5, 1e-7}) {
      const double snr = required_snr(mod, target);
      EXPECT_NEAR(bit_error_rate(mod, snr), target, target * 0.01);
    }
  }
}

TEST(Modulation, PacketSuccessProbability) {
  EXPECT_NEAR(packet_success_probability(0.0, 1000), 1.0, 1e-12);
  EXPECT_NEAR(packet_success_probability(1e-3, 1000), std::pow(1.0 - 1e-3, 1000), 1e-9);
  EXPECT_DOUBLE_EQ(packet_success_probability(1.0, 10), 0.0);
}

// ---- Leakage / physical security ---------------------------------------------

TEST(Leakage, EqsSignalCollapsesOffBody) {
  EqsLeakage leak;
  const double at_contact = leak.attacker_signal_v(0.0);
  const double at_1m = leak.attacker_signal_v(1.0);
  const double at_5m = leak.attacker_signal_v(5.0);
  EXPECT_GT(at_contact / at_1m, 100.0);  // >40 dB collapse within a meter
  EXPECT_GT(at_1m, at_5m);
}

TEST(Leakage, EqsInterceptionIsPersonalBubble) {
  // Das et al. [15]: EQS-HBC is undetectable beyond ~0.1-0.15 m from the
  // body. Our model must land in cm class, far below 1 m.
  EqsLeakage leak;
  const double range = leak.interception_range_m();
  EXPECT_LT(range, 0.5);
  EXPECT_GT(range, 0.0);  // contact-range attack still "works"
}

TEST(Leakage, BleInterceptionIsRoomScaleOrWorse) {
  // Paper Sec. III-B: RF radiates 5-10 m (and a sensitive sniffer reaches
  // further in free space).
  RfLeakage leak;
  EXPECT_GT(leak.interception_range_m(), 5.0);
}

TEST(Leakage, SecurityOrderingEqsBestNfmiMiddleRfWorst) {
  EqsLeakage eqs;
  NfmiLeakage nfmi;
  RfLeakage rf;
  const double r_eqs = eqs.interception_range_m();
  const double r_nfmi = nfmi.interception_range_m();
  const double r_rf = rf.interception_range_m();
  EXPECT_LT(r_eqs, r_nfmi);
  EXPECT_LT(r_nfmi, r_rf);
}

TEST(Leakage, AttackerSnrMonotoneInDistance) {
  EqsLeakage leak;
  double prev = 1e9;
  for (double d = 0.01; d < 10.0; d *= 2.0) {
    const double snr = leak.attacker_snr_db(d);
    EXPECT_LT(snr, prev);
    prev = snr;
  }
}

// ---- HBC safety (paper ref [19]) ----------------------------------------------

TEST(Safety, OneVoltSwingIsDeeplyCompliant) {
  // Maity et al. [19]: EQS-HBC at ~1 V sits orders of magnitude below the
  // ICNIRP limits across the EQS band.
  phy::HbcSafetyModel safety;
  for (const double f : {100.0 * kHz, 1.0 * MHz, 10.0 * MHz, 30.0 * MHz}) {
    EXPECT_GT(safety.compliance_margin_db(1.0, f), 20.0) << f;
  }
}

TEST(Safety, TissueCurrentIsMicroampClass) {
  phy::HbcSafetyModel safety;
  const double i = safety.tissue_current_a(1.0, 1.0 * MHz);
  EXPECT_LT(i, 100e-6);
  EXPECT_GT(i, 0.1e-6);
}

TEST(Safety, CurrentRisesWithFrequencyFieldLimitRisesToo) {
  // Coupling impedance falls with frequency -> more current; but the ICNIRP
  // field limit also scales with f, keeping HBC compliant across the band.
  phy::HbcSafetyModel safety;
  EXPECT_GT(safety.tissue_current_a(1.0, 10e6), safety.tissue_current_a(1.0, 1e6));
  EXPECT_GT(phy::HbcSafetyModel::icnirp_field_limit_v_per_m(10e6),
            phy::HbcSafetyModel::icnirp_field_limit_v_per_m(1e6));
}

TEST(Safety, ContactCurrentLimitShape) {
  EXPECT_DOUBLE_EQ(phy::HbcSafetyModel::contact_current_limit_a(1.0 * MHz), 20e-3);
  EXPECT_NEAR(phy::HbcSafetyModel::contact_current_limit_a(50.0 * kHz), 10e-3, 1e-9);
}

TEST(Safety, MaxSafeVoltageScalesLinearly) {
  phy::HbcSafetyModel safety;
  const double vmax = safety.max_safe_tx_voltage_v(1.0 * MHz);
  EXPECT_GT(vmax, 100.0);  // huge headroom above the 1 V operating point
  // At vmax the margin is ~0 dB.
  EXPECT_NEAR(safety.compliance_margin_db(vmax, 1.0 * MHz), 0.0, 0.1);
}

TEST(Safety, RejectsBadInputs) {
  phy::HbcSafetyModel safety;
  EXPECT_THROW((void)safety.tissue_current_a(-1.0, 1e6), std::invalid_argument);
  EXPECT_THROW((void)safety.tissue_current_a(1.0, 0.0), std::invalid_argument);
  phy::SafetyParams p;
  p.electrode_area_m2 = 0.0;
  EXPECT_THROW(phy::HbcSafetyModel{p}, std::invalid_argument);
}

// ---- Interference robustness (paper ref [20]) -----------------------------------

TEST(Interference, SnirCombinesHarmonically) {
  // Equal SNR and SIR halve the effective ratio.
  EXPECT_NEAR(phy::effective_snir(100.0, 100.0), 50.0, 1e-9);
  // Strong interference dominates.
  EXPECT_NEAR(phy::effective_snir(1e6, 10.0), 10.0, 0.1);
}

TEST(Interference, RejectionRestoresLink) {
  // BodyWire [20]: OOK at -30 dB SIR is hopeless without rejection but
  // works with time-domain interference rejection (modeled as +45 dB).
  const double snr_db = 23.0;  // Wi-R operating point
  const double sir_db = -30.0;
  const double naked = phy::effective_snir_db(snr_db, sir_db);
  const double rejected = phy::effective_snir_db(snr_db, sir_db, 45.0);
  EXPECT_LT(naked, -25.0);  // interference-limited, unusable
  const double ber_naked = phy::bit_error_rate(phy::Modulation::kOok, units::from_db(naked));
  const double ber_rej = phy::bit_error_rate(phy::Modulation::kOok, units::from_db(rejected));
  EXPECT_GT(ber_naked, 0.2);
  EXPECT_LT(ber_rej, 1e-3);
}

TEST(Interference, RejectionNeverHurts) {
  for (const double rej : {0.0, 10.0, 30.0, 60.0}) {
    EXPECT_GE(phy::effective_snir_db(20.0, 0.0, rej), phy::effective_snir_db(20.0, 0.0, 0.0));
  }
  EXPECT_THROW(phy::effective_snir(10.0, 10.0, -1.0), std::invalid_argument);
}

}  // namespace
}  // namespace iob::phy
