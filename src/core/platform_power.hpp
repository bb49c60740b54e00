#pragma once
/// \file platform_power.hpp
/// Platform power model: computes the Fig.-1-style per-component power
/// breakdown of a wearable node under either architecture.
///
/// Conventional: the node senses at the raw rate, runs the full AI model on
/// its own CPU (paying MCU-class energy/MAC plus CPU static power), and
/// duty-cycles a BLE-class radio to report results + keep-alives.
/// Human-inspired: the node senses with a ULP co-designed front-end, runs
/// only the light ISA stage, and streams the reduced-rate data over Wi-R to
/// the hub, which executes the model at better silicon efficiency.

#include "comm/link.hpp"
#include "core/architecture.hpp"
#include "energy/sensing_power.hpp"

namespace iob::core {

struct PowerBreakdown {
  double sense_w = 0.0;
  double compute_w = 0.0;  ///< CPU (conventional) or ISA (human-inspired)
  double comm_w = 0.0;
  /// Hub-side cost induced by this node (inference + bus RX); zero for the
  /// conventional node, which computes locally.
  double hub_induced_w = 0.0;

  [[nodiscard]] double node_total_w() const { return sense_w + compute_w + comm_w; }
  [[nodiscard]] double system_total_w() const { return node_total_w() + hub_induced_w; }
};

class PlatformPowerModel {
 public:
  /// \param radio_link link used by the conventional architecture (BLE class)
  /// \param body_link link used by the human-inspired architecture (Wi-R)
  PlatformPowerModel(const comm::Link& radio_link, const comm::Link& body_link,
                     energy::SensingPowerModel sensing = {}, SiliconConstants silicon = {});

  [[nodiscard]] PowerBreakdown evaluate(NodeArchitecture arch, const WorkloadSpec& workload) const;

  [[nodiscard]] const SiliconConstants& silicon() const { return silicon_; }
  [[nodiscard]] const energy::SensingPowerModel& sensing() const { return sensing_; }

 private:
  const comm::Link& radio_link_;
  const comm::Link& body_link_;
  energy::SensingPowerModel sensing_;
  SiliconConstants silicon_;
};

}  // namespace iob::core
