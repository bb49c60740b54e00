#include "core/architecture.hpp"

namespace iob::core {

using namespace iob::units;

WorkloadSpec ecg_patch_workload() {
  // 2-lead ECG at 360 Hz x 12 bit ~ 8.6 kb/s; beat classifier ~ 60k MACs per
  // beat at ~1.2 beats/s; delta+varint codec roughly halves the stream;
  // results are a handful of bytes per beat.
  WorkloadSpec w;
  w.name = "ECG patch";
  w.raw_rate_bps = 8.6 * kbps;
  w.inference_macs_per_s = 75'000;
  w.isa_output_rate_bps = 4.0 * kbps;
  w.isa_macs_per_s = 20'000;
  w.result_rate_bps = 40.0;
  return w;
}

WorkloadSpec audio_pendant_workload() {
  // 16 kHz x 16 bit PCM = 256 kb/s; DS-CNN KWS ~ 2.7 MMAC per 1 s window;
  // ADPCM 4:1 -> 64 kb/s; wake-word results are tiny.
  WorkloadSpec w;
  w.name = "audio pendant";
  w.raw_rate_bps = 256.0 * kbps;
  w.inference_macs_per_s = 2'700'000;
  w.isa_output_rate_bps = 64.0 * kbps;
  w.isa_macs_per_s = 400'000;
  w.result_rate_bps = 100.0;
  return w;
}

WorkloadSpec camera_node_workload() {
  // QVGA 15 fps 8-bit = 9.2 Mb/s raw; visual-wake-words net ~ 7.5 MMAC per
  // frame x 15 fps; MJPEG ~ 12:1 -> 0.77 Mb/s; person-present results tiny.
  WorkloadSpec w;
  w.name = "camera node";
  w.raw_rate_bps = 9.2 * Mbps;
  w.inference_macs_per_s = 112'000'000;
  w.isa_output_rate_bps = 0.77 * Mbps;
  w.isa_macs_per_s = 3'000'000;
  w.result_rate_bps = 60.0;
  return w;
}

}  // namespace iob::core
