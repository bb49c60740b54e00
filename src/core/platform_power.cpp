#include "core/platform_power.hpp"

#include "common/expect.hpp"

namespace iob::core {

PlatformPowerModel::PlatformPowerModel(const comm::Link& radio_link, const comm::Link& body_link,
                                       energy::SensingPowerModel sensing,
                                       SiliconConstants silicon)
    : radio_link_(radio_link),
      body_link_(body_link),
      sensing_(std::move(sensing)),
      silicon_(silicon) {}

PowerBreakdown PlatformPowerModel::evaluate(NodeArchitecture arch,
                                            const WorkloadSpec& w) const {
  IOB_EXPECTS(w.raw_rate_bps > 0, "workload raw rate must be positive");
  PowerBreakdown b;

  if (arch == NodeArchitecture::kConventional) {
    // Full-function node: conventional AFE, local inference, radio reports.
    b.sense_w = sensing_.power_w(w.raw_rate_bps);
    b.compute_w = static_cast<double>(w.inference_macs_per_s) * silicon_.leaf_energy_per_mac_j +
                  silicon_.cpu_static_power_w;
    b.comm_w = radio_link_.stream_tx_power_w(w.result_rate_bps);
    b.hub_induced_w = 0.0;
    return b;
  }

  // Human-inspired leaf: ULP front-end, ISA only, Wi-R streaming to hub.
  b.sense_w = sensing_.power_w(w.raw_rate_bps) * silicon_.ulp_sense_factor;
  b.compute_w = static_cast<double>(w.isa_macs_per_s) * silicon_.leaf_energy_per_mac_j;
  b.comm_w = body_link_.stream_tx_power_w(w.isa_output_rate_bps);
  // Hub inherits the model plus the bus receive cost for this stream.
  b.hub_induced_w =
      static_cast<double>(w.inference_macs_per_s) * silicon_.hub_energy_per_mac_j +
      w.isa_output_rate_bps * body_link_.spec().rx_energy_per_bit_j;
  return b;
}

}  // namespace iob::core
