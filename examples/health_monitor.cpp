// Health-monitoring scenario (paper Sec. II-A/II-D): a full-body suite of
// perpetually-operable biopotential nodes — ECG chest patch, EMG wrist
// band, ankle IMU, PPG ring — streamed over Wi-R to the hub, which runs
// the 1-D CNN arrhythmia classifier and forwards alerts to the cloud. The
// ECG patch's rate comes from a synthetic ECG pushed through the real ISA
// codec; the EMG, IMU and PPG leaves are fixed-rate profiles. Includes an
// energy-harvesting variant showing charging-free operation.
//
//   $ ./health_monitor

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <numeric>
#include <tuple>

#include "comm/wir_link.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "core/fleet.hpp"
#include "core/report.hpp"
#include "core/sweep_runner.hpp"
#include "isa/bio_codec.hpp"
#include "net/device_library.hpp"
#include "net/network_sim.hpp"
#include "nn/model_zoo.hpp"
#include "phy/interference.hpp"
#include "sim/rng.hpp"
#include "workload/ecg.hpp"

int main() {
  using namespace iob;
  using namespace iob::units;

  // --- Stage 1: measure the actual ISA compression on actual ECG ------------
  sim::Rng rng(2024);
  workload::EcgGenerator ecg_gen;
  const auto adc = ecg_gen.generate_adc(30.0, rng);
  isa::BioCodec codec(/*use_huffman=*/true);
  const double ratio = codec.compression_ratio(adc);
  const double raw_bps = 2.0 * ecg_gen.data_rate_bps(16);  // 2-lead patch
  const double coded_bps = raw_bps / ratio;
  std::cout << "ECG ISA codec: " << common::fixed(ratio, 2) << ":1 lossless ("
            << common::si_format(raw_bps, "b/s") << " -> "
            << common::si_format(coded_bps, "b/s") << ")\n";

  // --- Stage 2: the body-area network ---------------------------------------
  comm::WiRLink wir;
  net::NetworkSim network(wir, net::NetworkConfig{/*seed=*/7});

  auto leaf = [](const char* name, net::BodyLocation loc, double rate_bps, double sense_w,
                 double isa_w) {
    net::NodeConfig n;
    n.name = name;
    n.location = loc;
    n.stream = name;
    n.sense_power_w = sense_w;
    n.isa_power_w = isa_w;
    n.output_rate_bps = rate_bps;
    return n;
  };
  network.add_node(leaf("ecg", net::BodyLocation::kChest, coded_bps, 8.0 * uW, 1.5 * uW));
  network.add_node(leaf("emg", net::BodyLocation::kWristLeft, 8.0 * kbps, 9.0 * uW, 1.5 * uW));
  network.add_node(leaf("imu", net::BodyLocation::kAnkleLeft, 4.8 * kbps, 5.0 * uW, 0.5 * uW));
  network.add_node(leaf("ppg", net::BodyLocation::kFingerLeft, 1.6 * kbps, 40.0 * uW, 0.5 * uW));

  // Hub: arrhythmia CNN on every second of ECG, alerts uplinked.
  const nn::Model ecg_model = nn::make_ecg_cnn1d();
  net::SessionConfig session;
  session.stream = "ecg";
  session.macs_per_inference = ecg_model.total_macs();
  session.bytes_per_inference = static_cast<std::uint64_t>(coded_bps / 8.0);  // ~1 s windows
  session.forward_to_cloud = true;
  network.add_session(session);

  const net::NetworkReport report = network.run(120.0);

  std::cout << "\n=== 2-minute simulation: human-inspired health-monitoring BAN ===\n\n"
            << core::render_network_report(report);
  std::cout << "\nhub: " << network.hub().session("ecg").inferences << " arrhythmia inferences, "
            << common::si_format(network.hub().session("ecg").compute_energy_j, "J")
            << " compute, "
            << common::si_format(network.hub().session("ecg").uplink_energy_j, "J")
            << " cloud uplink\n";

  // --- Stage 3: the harvesting variant (paper Sec. V) ------------------------
  comm::WiRLink wir2;
  net::NetworkSim harvested(wir2, net::NetworkConfig{/*seed=*/8});
  energy::HarvesterParams pv;
  pv.source = energy::HarvestSource::kIndoorPhotovoltaic;
  pv.mean_power_w = 50.0 * uW;
  pv.availability = 0.7;
  for (const char* name : {"ecg", "emg", "imu", "ppg"}) {
    net::NodeConfig n = leaf(name, net::BodyLocation::kChest, 5.0 * kbps, 8.0 * uW, 1.0 * uW);
    n.harvester = pv;
    harvested.add_node(n);
  }
  const net::NetworkReport hreport = harvested.run(120.0);

  std::cout << "\n=== with 50 uW indoor-PV harvesting (10-200 uW window, Sec. V) ===\n\n";
  common::Table t({"node", "avg power", "harvest avg", "projected life"});
  for (std::size_t i = 0; i < hreport.nodes.size(); ++i) {
    const auto& n = hreport.nodes[i];
    t.add_row({n.name, common::si_format(n.average_power_w, "W"),
               common::si_format(50.0 * uW * 0.7, "W"),
               std::isinf(n.projected_life_days) ? "charging-free (perpetual)"
                                                 : common::fixed(n.projected_life_days, 0) + " d"});
  }
  t.print();

  // --- Stage 4: the population view (docs/scaling.md) ------------------------
  // One wearer is an anecdote; a deployment decision wants the lifetime
  // *distribution* across a population. core::Fleet sweeps the same BAN
  // across 500 seed replicates x {no harvest, indoor PV} and streams the
  // grid through run_streaming: points decode lazily, batches overlap with
  // the online percentile fold, and memory stays O(batch) no matter how
  // large the population grows.
  auto ban_class = [&leaf](const char* name, double rate_bps, double sense_w, double isa_w) {
    core::NodeClassSpec cls;
    cls.base = leaf(name, net::BodyLocation::kChest, rate_bps, sense_w, isa_w);
    return cls;
  };
  core::FleetAxes axes;
  axes.node_counts = {4};
  axes.mixes = {{"ban", {ban_class("ecg", 5.0 * kbps, 8.0 * uW, 1.5 * uW),
                         ban_class("emg", 8.0 * kbps, 9.0 * uW, 1.5 * uW),
                         ban_class("imu", 4.8 * kbps, 5.0 * uW, 0.5 * uW),
                         ban_class("ppg", 1.6 * kbps, 40.0 * uW, 0.5 * uW)}}};
  axes.harvests = {{"none", std::nullopt}, {"indoor-pv-50uW", pv}};
  axes.seeds.resize(500);
  std::iota(axes.seeds.begin(), axes.seeds.end(), std::uint64_t{1});
  axes.duration_s = 0.25;

  const core::Fleet fleet(axes);
  const core::SweepRunner runner;
  const core::FleetStreamResult stream = fleet.run_streaming(runner);
  std::cout << "\n=== population of " << stream.points
            << " simulated BANs (streamed, docs/scaling.md) ===\n\n"
            << stream.summary.to_string()
            << "\nthe harvest marginal is the deployment question answered at population\n"
               "scale: 50 uW indoor PV pushes the median wearer's lifetime to perpetual.\n";

  // --- Stage 5: the wearer goes for a run (docs/robustness.md) --------------
  // The motion-heavy suite preset puts a smartwatch, ECG chest patch and
  // earbud on a running wearer: short vigorous gait sojourns and frequent
  // arm-swing occlusions knock 9-18 dB off the body channel, and a cafe-
  // grade interferer (one continuously-streaming co-located body bus, the
  // bench's "cafe" level) sits underneath. The combination parks full-size
  // frames below the OOK waterfall while quarter-size frames still make it
  // — exactly the regime the degradation ladder exists for. Same 30 s
  // episode twice, ladder disarmed vs armed.
  auto stress = [](bool armed) {
    comm::WiRLink link;
    net::SuitePreset suite = net::motion_heavy_suite();
    net::NetworkConfig cfg{/*seed=*/11};
    cfg.dynamics.motion = suite.motion;
    cfg.dynamics.interference = phy::SirLevel{/*aggressors=*/1, /*duty_cycle=*/1.0,
                                              /*aggressor_sir_db=*/-7.9};
    net::NetworkSim sim(link, cfg);
    for (net::NodeConfig n : suite.nodes) {
      if (!armed) n.degradation.reset();
      sim.add_node(std::move(n));
    }
    return sim.run(30.0);
  };
  const net::NetworkReport off_run = stress(false);
  const net::NetworkReport on_run = stress(true);

  std::cout << "\n=== stage 5: motion-heavy suite, 30 s run/occlusion episode ===\n\n";
  auto totals = [](const net::NetworkReport& r) {
    std::uint64_t del = 0, shed = 0;
    double radio_w = 0.0, tdeg = 0.0;
    for (const auto& n : r.nodes) {
      del += n.frames_delivered;
      shed += n.dropped_shed;
      radio_w += n.comm_power_w;
      tdeg = std::max(tdeg, n.time_degraded_s);
    }
    return std::tuple{del, shed, radio_w, tdeg};
  };
  const auto [odel, oshed, oradio, otdeg] = totals(off_run);
  const auto [adel, ashed, aradio, atdeg] = totals(on_run);
  (void)otdeg;
  common::Table st({"ladder", "delivered", "goodput", "shed", "radio power", "time degraded"});
  st.add_row({"disarmed", std::to_string(odel),
              common::si_format(off_run.aggregate_goodput_bps, "b/s"), std::to_string(oshed),
              common::si_format(oradio, "W"), "-"});
  st.add_row({"armed", std::to_string(adel),
              common::si_format(on_run.aggregate_goodput_bps, "b/s"), std::to_string(ashed),
              common::si_format(aradio, "W"), common::fixed(atdeg, 1) + " s"});
  st.print();
  const double life_gain =
      on_run.nodes[2].projected_life_days / off_run.nodes[2].projected_life_days;
  std::cout << "\nthe disarmed suite delivers " << odel << " frames in 30 s — the session is\n"
            << "dead, yet the radio keeps burning " << common::si_format(oradio, "W")
            << " on full-frame ARQ that cannot succeed. the armed ladder retreats to\n"
               "int8-quarter frames with shedding within the first second and holds a "
            << common::si_format(on_run.aggregate_goodput_bps, "b/s")
            << "\ntrickle of vitals and audio for the whole episode at a fraction of the\n"
               "radio power (earbud projected battery life x"
            << common::fixed(life_gain, 2) << "); " << ashed
            << " frames were shed on purpose\ninstead of dropped by a blind MAC.\n";
  return 0;
}
