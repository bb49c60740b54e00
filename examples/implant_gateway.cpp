// Implant-gateway scenario (paper Sec. IV-B, future work): "exploring
// body-assisted communication for implantable devices in EQS regime and
// beyond using Magneto-Quasistatic Human Body Communication leveraging the
// human body's transparency to magnetic fields."
//
// A deep implant (neural recorder) uses an NFMI/MQS link to a skin-surface
// relay patch; the patch joins the Wi-R body bus like any other ULP leaf
// and forwards the neural stream to the wearable brain. Also demonstrates
// the sub-uW Wi-R profile [21] for an authentication token and the TDMA
// downlink window for stimulation commands travelling back to the implant.
//
//   $ ./implant_gateway

#include <iostream>

#include "comm/nfmi_link.hpp"
#include "comm/tdma.hpp"
#include "comm/wir_link.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "core/report.hpp"
#include "net/network_sim.hpp"
#include "phy/nfmi_channel.hpp"
#include "sim/simulator.hpp"

int main() {
  using namespace iob;
  using namespace iob::units;

  // --- Stage 1: the through-tissue MQS hop (implant -> skin relay) ------------
  phy::NfmiChannelParams tissue;
  tissue.freq_hz = 2.0 * MHz;       // low-MHz MQS, body-transparent
  tissue.ref_distance_m = 0.05;     // 5 cm implant depth reference
  tissue.ref_gain_db = -35.0;       // mm-scale implant coil
  comm::NfmiLinkParams hop;
  hop.channel = tissue;
  hop.channel_distance_m = 0.06;    // cortical implant -> scalp patch
  hop.phy_rate_bps = 100.0 * kbps;  // neural feature stream
  hop.tx_power_w = 20.0 * uW;       // biphasic quasistatic class [22]
  hop.rx_power_w = 30.0 * uW;
  comm::NfmiLink implant_hop(hop);

  std::cout << "implant MQS hop: " << common::fixed(hop.channel_distance_m * 100, 0)
            << " cm through tissue, SNR " << common::fixed(implant_hop.spec().link_snr_db, 1)
            << " dB, FER(64 B) "
            << (implant_hop.frame_error_rate(64) < 1e-9
                    ? "<1e-9"
                    : common::si_format(implant_hop.frame_error_rate(64), ""))
            << ", TX energy " << common::si_format(implant_hop.spec().tx_energy_per_bit_j, "J/b")
            << "\n";
  const double implant_stream_bps = 20.0 * kbps;  // compressed spike features
  const double implant_tx_w = implant_hop.stream_tx_power_w(implant_stream_bps, 64);
  std::cout << "implant radio power at " << common::si_format(implant_stream_bps, "b/s") << ": "
            << common::si_format(implant_tx_w, "W") << "\n\n";

  // --- Stage 2: the body-bus network with the relay patch ---------------------
  comm::WiRLink wir;
  net::NetworkConfig cfg;
  cfg.seed = 13;
  cfg.mac.downlink_slot_s = 0.5e-3;  // stimulation-command window
  net::NetworkSim network(wir, cfg);

  net::NodeConfig relay;
  relay.name = "scalp-relay";
  relay.location = net::BodyLocation::kHead;
  relay.stream = "neural";
  relay.sense_power_w = implant_tx_w + 30.0 * uW;  // MQS RX side lives on the relay
  relay.isa_power_w = 2.0 * uW;                    // spike-feature packing
  relay.output_rate_bps = implant_stream_bps;
  network.add_node(relay);

  net::NodeConfig token;
  token.name = "auth-token";  // sub-uW wearable authentication node [21]
  token.location = net::BodyLocation::kWristRight;
  token.stream = "auth";
  token.sense_power_w = 0.1 * uW;
  token.output_rate_bps = 1.0 * kbps;
  token.frame_bytes = 32;
  network.add_node(token);

  net::SessionConfig neural;
  neural.stream = "neural";
  neural.macs_per_inference = 500'000;  // decoder running on the hub
  neural.bytes_per_inference = 2500;    // 1 s of features
  network.add_session(neural);

  const net::NetworkReport report = network.run(60.0);
  std::cout << "=== 60 s simulation: implant -> scalp relay -> wearable brain ===\n\n"
            << core::render_network_report(report);
  std::cout << "\nhub decoded " << network.hub().session("neural").inferences
            << " neural windows\n";

  // --- Stage 3: downlink stimulation commands over the same bus ----------------
  sim::Simulator sim(14);
  comm::TdmaConfig mac;
  mac.downlink_slot_s = 0.5e-3;
  comm::TdmaBus bus(sim, wir, mac);
  const comm::NodeId relay_id = bus.add_node("scalp-relay");
  int commands = 0;
  bus.set_downlink_handler([&](const comm::Frame&, sim::Time) { ++commands; });
  for (int i = 0; i < 30; ++i) {
    comm::Frame cmd;
    cmd.payload_bytes = 16;  // stimulation parameter update
    bus.enqueue_downlink(relay_id, cmd);
  }
  bus.start();
  sim.run_until(0.25);
  bus.stop();
  std::cout << "\ndownlink: " << commands << "/30 stimulation commands delivered in "
            << common::si_format(sim.now(), "s") << " of bus time, relay RX cost "
            << common::si_format(bus.stats().nodes[0].rx_energy_j, "J") << "\n";

  std::cout << "\npaper takeaway (Sec. IV-B): the body's transparency to magnetic fields\n"
               "extends the artificial nervous system to implants — same hub, same bus.\n";
  return 0;
}
