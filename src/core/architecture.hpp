#pragma once
/// \file architecture.hpp
/// The paper's central comparison, as types: *conventional* IoB nodes
/// (every wearable carries sensors + its own CPU + a radio; Fig. 1 left)
/// versus *human-inspired* nodes (ULP sensors + optional ISA + Wi-R to a
/// shared wearable brain; Fig. 1 right).

#include <cstdint>
#include <string>

#include "common/units.hpp"

namespace iob::core {

enum class NodeArchitecture {
  kConventional,   ///< sensors ~100s uW + CPU ~mW + radio ~10s mW
  kHumanInspired,  ///< sensors 10-50 uW + ISA ~100 uW + Wi-R ~100 uW
};

/// An AI-enabled sensing task living on a wearable node.
struct WorkloadSpec {
  std::string name;
  double raw_rate_bps;          ///< sensor output before any processing
  std::uint64_t inference_macs_per_s;  ///< AI model compute, sustained
  double isa_output_rate_bps;   ///< traffic after ISA (codec/features)
  std::uint64_t isa_macs_per_s; ///< ISA compute (codec/feature extraction)
  double result_rate_bps;       ///< classification/result traffic only
};

/// Silicon/platform constants shared by the power models (DESIGN.md Sec. 4).
struct SiliconConstants {
  double leaf_energy_per_mac_j = 20e-12;  ///< MCU-class
  double hub_energy_per_mac_j = 5e-12;    ///< app-processor class
  double cpu_static_power_w = 200e-6;     ///< leaf CPU leakage + clocks when on
  double ulp_sense_factor = 0.35;         ///< ULP AFE co-design saving (Fig. 1)
};

/// Paper-motivated reference workloads (Sec. II device classes).
WorkloadSpec ecg_patch_workload();     ///< biopotential patch + arrhythmia CNN
WorkloadSpec audio_pendant_workload(); ///< microphone + keyword spotting
WorkloadSpec camera_node_workload();   ///< QVGA camera + visual wake words

}  // namespace iob::core
