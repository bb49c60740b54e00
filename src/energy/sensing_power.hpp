#pragma once
/// \file sensing_power.hpp
/// Sensing-front-end power as a function of produced data rate — the survey
/// model behind the paper's Fig. 3 ("The sensing power is characterized as a
/// function of data rate with a survey of past literature and commercially
/// available analog front-ends [29]").
///
/// The survey is encoded as log-log anchor points and interpolated as
/// piecewise power laws. Anchors (documented in DESIGN.md Sec. 4) span the
/// biopotential AFE class (uW at kb/s) through microphone/codec class (mW at
/// ~Mb/s) to ULP camera class (tens of mW at ~10 Mb/s).

#include "common/interp.hpp"
#include "common/units.hpp"

namespace iob::energy {

class SensingPowerModel {
 public:
  /// Survey defaults (DESIGN.md Sec. 4 anchor table).
  SensingPowerModel();

  /// Sensing power (W) to produce `rate_bps` of sensor data.
  [[nodiscard]] double power_w(double rate_bps) const;

  [[nodiscard]] const common::AnchorTable& anchors() const { return interp_.anchors(); }

 private:
  common::LogLogInterpolator interp_;
};

/// Representative sensor classes with their native (uncompressed) data rates,
/// used to place the paper's device markers on the Fig. 3 curve.
struct SensorClass {
  const char* name;
  double data_rate_bps;
};

/// The device classes Fig. 3 calls out, at their typical raw data rates.
/// ECG patch: 12-bit @ 250 Hz x 2ch ~ 6 kb/s; ring/tracker (PPG+IMU bursts)
/// ~ 40 kb/s; audio: 16-bit @ 16 kHz = 256 kb/s; ExG multichannel ~ 1 Mb/s;
/// video: MJPEG-compressed QVGA @ 15-30 fps ~ 4-10 Mb/s.
inline constexpr SensorClass kBiopotentialPatch{"biopotential patch (ECG/EMG)", 6.0 * units::kbps};
inline constexpr SensorClass kSmartRing{"smart ring / fitness tracker", 40.0 * units::kbps};
inline constexpr SensorClass kAudioNode{"audio-input AI node (pin/pendant)", 256.0 * units::kbps};
inline constexpr SensorClass kExgArray{"multi-channel ExG array", 1.0 * units::Mbps};
inline constexpr SensorClass kVideoNode{"AI video node (MJPEG QVGA)", 10.0 * units::Mbps};

}  // namespace iob::energy
