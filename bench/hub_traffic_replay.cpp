// Hub traffic-replay saturation bench (ROADMAP "server-tier hub" item): ONE
// hub terminates thousands of staged concurrent sessions — a deterministic
// replay of de-phased, jittered arrival traces over mixed models (KWS DS-CNN
// + ECG CNN1D), mixed precisions (f32 + int8), superframe-batched with
// execute-and-meter on — and the grid locates the saturation knee: delivered
// inference items/s and p99 queued latency vs session count vs
// `HubConfig::engine_threads`. The engine runs each flush's work plan —
// every (model group, precision, sub-batch) item — across the hub's
// persistent TaskPool; items/s is measured against host wall time, so the
// knee shows where the replay becomes kernel-bound and threads start
// paying. Metered kernel time is thread CPU time, so its t_max/t1 ratio
// (`hub_meter_time_ratio`) should stay near 1.0 at any thread count.
//
// Set IOB_REPLAY_SMOKE=1 (CI) to shrink the grid and duration.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <thread>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "comm/wir_link.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "net/network_sim.hpp"
#include "nn/model_zoo.hpp"

namespace {

using namespace iob;

// Replay shape: short 60 B feature frames keep the auto-sized TDMA slot
// small enough that even a 2000-node superframe stays well under the frame
// cadence (one frame per 0.5 s per session), so staging windows fill
// steadily instead of queues backing up.
constexpr std::uint32_t kFrameBytes = 60;
constexpr std::uint64_t kBytesPerInference = 20;  // 3 inferences per frame
constexpr double kFramePeriodS = 0.5;

std::uint64_t model_macs(const nn::Model& m) {
  std::uint64_t total = 0;
  for (const auto& p : m.profiles()) total += p.macs;
  return total;
}

std::uint64_t model_params(const nn::Model& m) {
  std::uint64_t total = 0;
  for (const auto& p : m.profiles()) total += p.params;
  return total;
}

struct ReplayResult {
  double items_per_s = 0.0;       ///< executed inferences / host wall s
  double p99_queued_s = 0.0;      ///< p99 of per-session mean queued latency
  double wall_s = 0.0;
  std::uint64_t executed = 0;
  std::uint64_t inferences = 0;
  std::uint64_t batched_passes = 0;
  double kernel_time_s = 0.0;     ///< summed metered kernel CPU time
};

/// One replay point: `sessions` staged concurrent sessions on one hub with
/// `threads` engine threads. Deterministic trace: node i's model/precision
/// derive from i, its phase from a fixed LCG jitter — every (sessions,
/// threads) point replays the identical arrival schedule.
ReplayResult run_replay(int sessions, unsigned threads, unsigned batch_window, double duration_s,
                        const nn::Model& kws, const nn::Model& ecg) {
  net::NetworkConfig nc;
  nc.seed = 42;
  nc.mac.slot_s = 0;  // auto-size the slot from the link rate and frame MTU
  nc.mac.auto_slot_mtu_bytes = kFrameBytes;
  nc.hub.batch_window = batch_window;
  nc.hub.execute_and_meter = true;
  nc.hub.engine_threads = threads;
  net::NetworkSim net(std::make_unique<comm::WiRLink>(), nc);

  std::uint64_t lcg = 0x2545F4914F6CDD1DULL;
  for (int i = 0; i < sessions; ++i) {
    const bool is_kws = (i % 2) == 0;
    const nn::Model& m = is_kws ? kws : ecg;
    net::NodeConfig n;
    n.name = (is_kws ? "kws-" : "ecg-") + std::to_string(i);
    n.stream = n.name;
    n.sense_power_w = 50e-6;
    n.output_rate_bps = static_cast<double>(kFrameBytes) * 8.0 / kFramePeriodS;
    n.frame_bytes = kFrameBytes;
    // Replayed arrivals: deterministic per-node jitter spreads frame
    // creation across the whole period (no population-wide phase snap).
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    n.phase_s = kFramePeriodS * static_cast<double>(lcg >> 11) /
                static_cast<double>(1ULL << 53);
    net.add_node(n);

    net::SessionConfig s;
    s.stream = n.stream;
    s.model = m.name();
    s.net = &m;
    s.macs_per_inference = model_macs(m);
    s.weight_bytes = model_params(m);
    s.bytes_per_inference = kBytesPerInference;
    s.precision = (i % 4) < 2 ? nn::Precision::kF32 : nn::Precision::kInt8;
    net.add_session(s);
  }

  const double t0 = bench::wall_time_s();
  net.run(duration_s);
  const double wall = bench::wall_time_s() - t0;

  ReplayResult r;
  r.wall_s = wall;
  r.batched_passes = net.hub().batched_passes();
  std::vector<double> queued_means;
  queued_means.reserve(static_cast<std::size_t>(sessions));
  for (int i = 0; i < sessions; ++i) {
    const std::string stream =
        ((i % 2) == 0 ? "kws-" : "ecg-") + std::to_string(i);
    const net::SessionStats& st = net.hub().session(stream);
    r.executed += st.executed_inferences;
    r.inferences += st.inferences;
    r.kernel_time_s += st.kernel_time_s;
    if (st.queued_latency_s.count() > 0) queued_means.push_back(st.queued_latency_s.mean());
  }
  r.items_per_s = wall > 0 ? static_cast<double>(r.executed) / wall : 0.0;
  if (!queued_means.empty()) {
    std::sort(queued_means.begin(), queued_means.end());
    // ceil(0.99 * n) >= 1 for n >= 1, so the -1 never underflows.
    const std::size_t rank =
        static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(queued_means.size())));
    r.p99_queued_s = queued_means[std::min(queued_means.size() - 1, rank - 1)];
  }
  return r;
}

void print_replay_grid() {
  const bool smoke = std::getenv("IOB_REPLAY_SMOKE") != nullptr;
  const std::vector<int> session_counts =
      smoke ? std::vector<int>{64, 128} : std::vector<int>{250, 500, 1000, 2000};
  const std::vector<unsigned> thread_counts =
      smoke ? std::vector<unsigned>{1, 2} : std::vector<unsigned>{1, 2, 4, 8};
  const unsigned window = 2;
  const double duration_s = smoke ? 1.0 : 3.0;

  const nn::Model kws = nn::make_kws_dscnn();
  const nn::Model ecg = nn::make_ecg_cnn1d();

  common::print_banner(
      "Hub traffic replay — items/s and p99 queued latency vs sessions x engine threads" +
      std::string(smoke ? " [smoke]" : ""));

  std::vector<std::string> header{"sessions"};
  for (const unsigned t : thread_counts) header.push_back("t=" + std::to_string(t));
  header.emplace_back("p99 queued (t max)");
  header.emplace_back("passes");
  common::Table table(header);

  bench::JsonReporter json("hub_traffic_replay");
  bool deterministic = true;
  double headline_items = 0.0, headline_p99 = 0.0;
  double knee_serial = 0.0, knee_4t = 0.0;
  double small_serial = 0.0, small_4t = 0.0;
  double meter_serial = 0.0, meter_max = 0.0;
  for (const int n : session_counts) {
    std::vector<std::string> row{std::to_string(n)};
    std::uint64_t ref_inferences = 0, ref_executed = 0;
    ReplayResult last;
    for (const unsigned t : thread_counts) {
      const ReplayResult r = run_replay(n, t, window, duration_s, kws, ecg);
      row.push_back(common::si_format(r.items_per_s, "it/s"));
      json.add("items_per_s_n" + std::to_string(n) + "_t" + std::to_string(t), r.items_per_s);
      // Determinism cross-check: the replay schedule and batched engine are
      // bit-identical across thread counts, so every counted stat must be.
      if (t == thread_counts.front()) {
        ref_inferences = r.inferences;
        ref_executed = r.executed;
      } else if (r.inferences != ref_inferences || r.executed != ref_executed) {
        deterministic = false;
      }
      if (n == session_counts.front()) {
        if (t == 1) small_serial = r.items_per_s;
        if (t == 4) small_4t = r.items_per_s;
      }
      if (n == session_counts.back()) {
        if (t == 1) {
          knee_serial = r.items_per_s;
          meter_serial = r.kernel_time_s;
        }
        if (t == 4) knee_4t = r.items_per_s;
        if (t == thread_counts.back()) {
          headline_items = r.items_per_s;
          headline_p99 = r.p99_queued_s;
          meter_max = r.kernel_time_s;
        }
      }
      last = r;
    }
    row.push_back(common::si_format(last.p99_queued_s, "s"));
    row.push_back(std::to_string(last.batched_passes));
    json.add("p99_queued_latency_s_n" + std::to_string(n), last.p99_queued_s);
    table.add_row(row);
  }
  std::cout << table.to_string();
  common::print_note("items/s = executed inferences / host wall time of the replay;");
  common::print_note("the knee is where staged batches get deep enough that the replay turns");
  common::print_note("kernel-bound and engine threads start paying");

  json.add("hub_replay_items_per_s", headline_items);
  json.add("hub_replay_p99_queued_latency_s", headline_p99);
  json.add("hub_replay_deterministic", deterministic ? 1.0 : 0.0);
  // Thread scaling is only meaningful relative to the host's core budget —
  // a single-core CI runner shows a flat (or slightly inverted) knee.
  json.add("hub_replay_host_cpus", static_cast<double>(std::thread::hardware_concurrency()));
  if (!smoke && knee_serial > 0.0) {
    json.add("hub_replay_speedup_4t", knee_4t / knee_serial);
    std::printf("\n  engine_threads=4 vs 1 at %d sessions: %.2fx items/s\n",
                session_counts.back(), knee_4t / knee_serial);
  }
  // One flush plan spans every model group, so even the smallest
  // population (one short sub-batch per (model, precision)) scales.
  if (!smoke && small_serial > 0.0) {
    json.add("hub_replay_speedup_4t_n250", small_4t / small_serial);
    std::printf("  engine_threads=4 vs 1 at %d sessions: %.2fx items/s\n",
                session_counts.front(), small_4t / small_serial);
  }
  // Metered kernel time is thread CPU time, so identical work meters the
  // same at any thread count — preemption on an oversubscribed host (t=8
  // on fewer cores) must not inflate it. ~1.0 is healthy.
  if (meter_serial > 0.0) {
    json.add("hub_meter_time_ratio", meter_max / meter_serial);
    std::printf("  metered kernel time t=%u / t=1 at %d sessions: %.3f\n",
                thread_counts.back(), session_counts.back(), meter_max / meter_serial);
  }
  std::printf("  counted stats bit-identical across thread counts: %s\n",
              deterministic ? "yes" : "NO");

  // Batch-window sensitivity at the knee (full mode): wider windows deepen
  // the staged batch (higher items/s) at the cost of queued latency.
  if (!smoke) {
    common::Table wt({"window", "items/s (1000 sessions, t=4)", "p99 queued"});
    for (const unsigned w : {1u, 2u, 4u}) {
      const ReplayResult r = run_replay(1000, 4, w, duration_s, kws, ecg);
      wt.add_row({std::to_string(w), common::si_format(r.items_per_s, "it/s"),
                  common::si_format(r.p99_queued_s, "s")});
      json.add("items_per_s_n1000_w" + std::to_string(w) + "_t4", r.items_per_s);
    }
    std::cout << wt.to_string();
  }

  json.write();
}

// ---- microbenchmarks --------------------------------------------------------

void BM_ReplayPoint(benchmark::State& state) {
  const auto threads = static_cast<unsigned>(state.range(0));
  static const nn::Model kws = nn::make_kws_dscnn();
  static const nn::Model ecg = nn::make_ecg_cnn1d();
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_replay(64, threads, 2, 0.5, kws, ecg));
  }
}
BENCHMARK(BM_ReplayPoint)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_replay_grid();
  return iob::bench::run_microbenchmarks(argc, argv);
}
