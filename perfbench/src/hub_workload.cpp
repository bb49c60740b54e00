// hub_saturation and hub_interactive: one NetworkSim whose hub terminates
// many leaf sessions, each replaying de-phased 60 B frames at 2 Hz into a
// KWS or ECG session (half of each model at int8), with execute-and-meter on
// so every staged inference runs on the nn engine.
//
//  * hub_saturation: 2,000 sessions, batch_window 2. Flushes are deep (many
//    32-item sub-batches), so the run is kernel-bound: kernel and
//    parallel-pass gains show here.
//  * hub_interactive: 250 sessions flushed every superframe. Each (model,
//    precision) pass is one small sub-batch, so per-flush overhead and pass
//    scheduling dominate; a change that buys saturation throughput with
//    deeper batches or costlier passes shows a loss here.
//
// Both are offline replays that run to completion: arrivals follow the
// simulated clock, and throughput is work divided by host wall time.

#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "comm/wir_link.hpp"
#include "host.hpp"
#include "metrics.hpp"
#include "net/network_sim.hpp"
#include "nn_probe.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace iob;

constexpr std::uint32_t kFrameBytes = 60;
constexpr std::uint64_t kBytesPerInference = 20;  // 3 inferences per frame
constexpr double kFramePeriodS = 0.5;

struct HubShape {
  const char* name;
  int sessions;
  unsigned batch_window;
  double replay_s;  ///< simulated seconds per measured replay
  double warmup_s;  ///< simulated seconds of the set-up warm-up replay
};

constexpr HubShape kSaturation{"hub_saturation", 2000, 2, 2.0, 0.5};
constexpr HubShape kInteractive{"hub_interactive", 250, 1, 10.0, 1.0};

/// Generated inputs: the sim seed and, per session, its model, precision
/// and traffic phase. The model/precision mix has the same counts for every
/// seed (a shuffled fixed multiset), so seeds move arrangement, not work.
struct Plan {
  std::uint64_t sim_seed = 0;
  struct Session {
    bool kws = true;
    bool int8 = false;
    double phase_s = 0.0;
  };
  std::vector<Session> sessions;
};

Plan make_plan(const HubShape& shape, std::uint64_t seed) {
  InputRng rng(seed);
  Plan plan;
  plan.sim_seed = rng.next();
  std::vector<int> kinds(static_cast<std::size_t>(shape.sessions));
  for (std::size_t i = 0; i < kinds.size(); ++i) kinds[i] = static_cast<int>(i % 4);
  for (std::size_t i = kinds.size(); i > 1; --i) {
    std::swap(kinds[i - 1], kinds[rng.next() % i]);
  }
  for (const int k : kinds) {
    plan.sessions.push_back({k < 2, (k % 2) == 1, kFramePeriodS * rng.unit()});
  }
  return plan;
}

std::string stream_name(const Plan::Session& s, std::size_t i) {
  return (s.kws ? "kws-" : "ecg-") + std::to_string(i);
}

std::unique_ptr<net::NetworkSim> build_replay(const HubShape& shape, const Plan& plan,
                                              const Zoo& zoo, unsigned threads) {
  net::NetworkConfig nc;
  nc.seed = plan.sim_seed;
  nc.mac.slot_s = 0;  // auto-size the slot to the 60 B frame
  nc.mac.auto_slot_mtu_bytes = kFrameBytes;
  nc.hub.batch_window = shape.batch_window;
  nc.hub.execute_and_meter = true;
  nc.hub.engine_threads = threads;
  auto sim = std::make_unique<net::NetworkSim>(std::make_unique<comm::WiRLink>(), nc);
  for (std::size_t i = 0; i < plan.sessions.size(); ++i) {
    const Plan::Session& s = plan.sessions[i];
    const nn::Model& model = s.kws ? zoo.kws : zoo.ecg;
    net::NodeConfig n;
    n.name = stream_name(s, i);
    n.stream = n.name;
    n.sense_power_w = 50e-6;
    n.output_rate_bps = static_cast<double>(kFrameBytes) * 8.0 / kFramePeriodS;
    n.frame_bytes = kFrameBytes;
    n.phase_s = s.phase_s;
    sim->add_node(n);

    net::SessionConfig sc;
    sc.stream = n.stream;
    sc.model = model.name();
    sc.net = &model;
    sc.macs_per_inference = model.total_macs();
    sc.weight_bytes = model.total_params();
    sc.bytes_per_inference = kBytesPerInference;
    sc.precision = s.int8 ? nn::Precision::kInt8 : nn::Precision::kF32;
    sim->add_session(sc);
  }
  return sim;
}

/// The SessionStats fields that count work (everything but metered time
/// and energy), compared bit for bit across replays and thread counts.
struct Counted {
  std::uint64_t bytes_in, inferences, batched_inferences, batched_passes, executed_inferences,
      queued_count;
  double queued_mean, analytic_compute_energy_j;

  bool operator==(const Counted& o) const { return std::memcmp(this, &o, sizeof(*this)) == 0; }
};

struct Replay {
  double build_s = 0.0;
  double run_s = 0.0;
  net::NetworkReport report;
  std::vector<Counted> counted;
  std::uint64_t executed = 0;
  std::uint64_t inferences = 0;
  std::uint64_t passes = 0;
  double kernel_s = 0.0;
  double compute_energy_j = 0.0;
  double queued_sum_s = 0.0;
  std::uint64_t queued_n = 0;
  CommCounts comm;
};

Replay run_replay(const HubShape& shape, const Plan& plan, const Zoo& zoo, unsigned threads,
                  double sim_s, Tracer* tracer) {
  Span span(tracer, "replay.t" + std::to_string(threads));
  Replay r;
  auto t0 = std::chrono::steady_clock::now();
  std::unique_ptr<net::NetworkSim> sim;
  {
    Span s(tracer, "build");
    sim = build_replay(shape, plan, zoo, threads);
  }
  r.build_s = seconds_since(t0);
  t0 = std::chrono::steady_clock::now();
  {
    Span s(tracer, "NetworkSim::run");
    r.report = sim->run(sim_s);
  }
  r.run_s = seconds_since(t0);

  const net::Hub& hub = sim->hub();
  r.passes = hub.batched_passes();
  for (std::size_t i = 0; i < plan.sessions.size(); ++i) {
    const net::SessionStats& st = hub.session(stream_name(plan.sessions[i], i));
    Counted c{};  // value-initialised: padding bytes compare equal
    c.bytes_in = st.bytes_in;
    c.inferences = st.inferences;
    c.batched_inferences = st.batched_inferences;
    c.batched_passes = st.batched_passes;
    c.executed_inferences = st.executed_inferences;
    c.queued_count = st.queued_latency_s.count();
    c.queued_mean = st.queued_latency_s.mean();
    c.analytic_compute_energy_j = st.analytic_compute_energy_j;
    r.counted.push_back(c);
    r.executed += st.executed_inferences;
    r.inferences += st.inferences;
    r.kernel_s += st.kernel_time_s;
    r.compute_energy_j += st.compute_energy_j;
    r.queued_sum_s += st.queued_latency_s.sum();
    r.queued_n += st.queued_latency_s.count();
  }
  r.comm.add(sim->bus().stats());
  return r;
}

/// Every metered session executed every inference it counted.
void check_executed(const Replay& r, const char* what, Outcome& out) {
  for (std::size_t i = 0; i < r.counted.size(); ++i) {
    out.check(r.counted[i].executed_inferences == r.counted[i].inferences,
              std::string(what) + ": executed_inferences == inferences, session " +
                  std::to_string(i));
  }
}

/// Counted SessionStats identical, session by session.
void check_same_counts(const Replay& a, const Replay& b, const std::string& what, Outcome& out) {
  out.check(a.counted.size() == b.counted.size(), what + ": session count");
  for (std::size_t i = 0; i < std::min(a.counted.size(), b.counted.size()); ++i) {
    out.check(a.counted[i] == b.counted[i], what + ": counted SessionStats, session " +
                                                std::to_string(i));
  }
}

void fill_sim_outcomes(const Replay& r, EndToEnd& e) {
  double latency = 0.0;
  std::vector<double> life;
  std::uint64_t delivered = 0, dropped = 0;
  for (const net::NodeReport& n : r.report.nodes) {
    latency += n.mean_latency_s;
    life.push_back(n.projected_life_days);
    delivered += n.frames_delivered;
    dropped += n.frames_dropped;
  }
  e.sim_delivery_latency_mean_s = latency / static_cast<double>(r.report.nodes.size());
  e.sim_queued_latency_mean_s =
      r.queued_n == 0 ? 0.0 : r.queued_sum_s / static_cast<double>(r.queued_n);
  e.frame_delivery_ratio = delivered + dropped == 0
                               ? 0.0
                               : static_cast<double>(delivered) /
                                     static_cast<double>(delivered + dropped);
  e.leaf_life_p10_days = quantile(life, 0.10);
}

void run_untraced(const HubShape& shape, const Options& opt, const Plan& plan, const Zoo& zoo,
                  Outcome& out) {
  EndToEnd e;
  std::vector<double> setups;
  for (int i = 0; i < 3; ++i) {
    const Replay warm = run_replay(shape, plan, zoo, opt.threads, shape.warmup_s, nullptr);
    setups.push_back(warm.build_s + warm.run_s);
  }
  e.setup_s = median(setups);

  std::vector<Replay> replays;
  const auto t0 = std::chrono::steady_clock::now();
  while (replays.size() < 3 || seconds_since(t0) < opt.seconds) {
    rotate_onto_cpu(static_cast<unsigned>(replays.size()));
    replays.push_back(run_replay(shape, plan, zoo, opt.threads, shape.replay_s, nullptr));
    Replay& r = replays.back();
    out.ops(r.executed);
    check_executed(r, "replay", out);
    if (replays.size() > 1) {
      check_same_counts(replays.front(), r, "replay vs first replay", out);
      r.report.nodes.clear();  // only the first replay's per-session detail is kept
      r.counted.clear();
    }
  }
  std::vector<double> items, points, energy;
  for (const Replay& r : replays) {
    std::cerr << "perfbench: replay " << items.size() << ": " << r.executed / r.run_s
              << " items/s, build " << r.build_s << " s, run " << r.run_s << " s\n";
    items.push_back(static_cast<double>(r.executed) / r.run_s);
    points.push_back(1.0 / (r.build_s + r.run_s));
    energy.push_back(r.compute_energy_j / static_cast<double>(r.executed) * 1e6);
  }
  e.hub_items_per_s = median(items);
  e.fleet_points_per_s = median(points);
  e.hub_compute_energy_per_item_uj = median(energy);

  // Thread-count determinism: the serial engine counts the same work.
  const Replay serial = run_replay(shape, plan, zoo, 1, shape.replay_s, nullptr);
  check_executed(serial, "serial replay", out);
  check_same_counts(replays.front(), serial,
                    std::to_string(opt.threads) + " engine threads vs 1 engine thread", out);
  fill_sim_outcomes(replays.front(), e);
  check_nn_chains(zoo, opt.seed, 19, out);
  emit_end_to_end(e, out);
}

void run_traced(const HubShape& shape, const Options& opt, const Plan& plan, const Zoo& zoo,
                Outcome& out) {
  Tracer tracer;
  PerLayer p;
  {
    Span s(&tracer, "setup");
    (void)run_replay(shape, plan, zoo, opt.threads, shape.warmup_s, nullptr);
  }
  const Replay parallel = run_replay(shape, plan, zoo, opt.threads, shape.replay_s, &tracer);
  const Replay serial = run_replay(shape, plan, zoo, 1, shape.replay_s, &tracer);
  out.ops(parallel.executed + serial.executed);
  check_executed(parallel, "replay", out);
  check_executed(serial, "serial replay", out);
  check_same_counts(parallel, serial,
                    std::to_string(opt.threads) + " engine threads vs 1 engine thread", out);

  p.hub_group_passes = static_cast<double>(parallel.passes);
  p.hub_items_per_pass = parallel.passes == 0 ? 0.0
                                              : static_cast<double>(parallel.executed) /
                                                    static_cast<double>(parallel.passes);
  p.hub_kernel_share = serial.kernel_s / serial.run_s;
  p.hub_non_kernel_s = serial.run_s - serial.kernel_s;
  p.hub_meter_inflation = parallel.kernel_s / serial.kernel_s;
  p.comm = parallel.comm;
  p.nn = nn_layer_metrics(zoo, opt.seed, true, &tracer, out);
  check_nn_chains(zoo, opt.seed, 19, out);
  emit_per_layer(p, out);
  tracer.write_chrome_trace(opt.out_dir + "/trace-" + shape.name + "-seed" +
                            std::to_string(opt.seed) + ".json");
}

void run_hub(const HubShape& shape, const Options& opt, Outcome& out) {
  const Zoo zoo;
  const Plan plan = make_plan(shape, opt.seed);
  if (opt.trace) {
    run_traced(shape, opt, plan, zoo, out);
  } else {
    run_untraced(shape, opt, plan, zoo, out);
  }
}

}  // namespace

void run_hub_saturation(const Options& opt, Outcome& out) { run_hub(kSaturation, opt, out); }

void run_hub_interactive(const Options& opt, Outcome& out) { run_hub(kInteractive, opt, out); }

}  // namespace perfbench
