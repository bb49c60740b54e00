// Microbenchmarks for the simulation hot path: event schedule/cancel/pop
// churn on the two-band (calendar wheel + 4-ary heap) slab-backed
// `sim::EventQueue`, compared against the seed design (std::function actions
// in an unordered_map behind a binary std::priority_queue, reproduced below
// as `LegacyEventQueue`), plus sweep-point throughput of the parallel
// deterministic `core::SweepRunner` vs thread count, plus the per-frame
// cost of the TDMA MAC path inside a whole network run. Emits
// BENCH_perf_sim_core.json with the headline numbers so the perf trajectory
// is tracked across PRs.
//
// Workloads:
//  * schedule/pop churn — a window of W in-flight events; every fire
//    schedules its successor one period ahead (the steady state of every
//    periodic sensor/MAC timer in the repo).
//  * timeout churn — every live event also schedules R timeout events and
//    cancels R older ones (ARQ/MAC guard timers: almost always cancelled
//    before firing). This is where the seed structurally collapses: each
//    dead entry eventually costs it a heap pop plus a hash lookup, while
//    the new queue drops it with a generation compare.
//  * steady-state allocation count — global operator new/delete are
//    interposed and counted across the second half of a churn run.
//  * MAC attempts — transmission attempts (delivered + retried) per host
//    second of a fixed 16-node Wi-R `NetworkSim`, on a clean channel and
//    under the fleet grid's gym interference plus running motion, where
//    every attempt draws against the motion/interference-shifted FER.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <new>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/alloc_interposer.hpp"  // defines global operator new/delete
#include "common/expect.hpp"
#include "core/fleet.hpp"
#include "core/sweep_runner.hpp"
#include "net/network_sim.hpp"
#include "phy/body_motion.hpp"
#include "phy/interference.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

// ---- allocation interposition ------------------------------------------------

namespace {
// TaskPool workers allocate too; the counter is process-wide.
std::atomic<std::uint64_t>& g_alloc_count = iob::alloc_interposer::new_calls;
}

namespace {

using namespace iob;

// ---- the seed event queue, verbatim semantics, kept as the perf baseline ----

class LegacyEventQueue {
 public:
  using Action = std::function<void()>;

  std::uint64_t schedule(double when, Action action) {
    const std::uint64_t id = next_id_++;
    heap_.push(Entry{when, next_seq_++, id});
    actions_.emplace(id, std::move(action));
    ++live_count_;
    return id;
  }

  bool cancel(std::uint64_t id) {
    const auto it = actions_.find(id);
    if (it == actions_.end()) return false;
    actions_.erase(it);
    --live_count_;
    return true;
  }

  [[nodiscard]] bool empty() const { return live_count_ == 0; }

  double run_next() {
    skip_dead();
    const Entry top = heap_.top();
    heap_.pop();
    auto it = actions_.find(top.id);
    Action action = std::move(it->second);
    actions_.erase(it);
    --live_count_;
    action();
    return top.when;
  }

 private:
  struct Entry {
    double when;
    std::uint64_t seq;
    std::uint64_t id;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  void skip_dead() {
    while (!heap_.empty() && actions_.find(heap_.top().id) == actions_.end()) heap_.pop();
  }

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::unordered_map<std::uint64_t, Action> actions_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_id_ = 1;
  std::size_t live_count_ = 0;
};

// ---- schedule/pop churn ------------------------------------------------------

struct ChurnResult {
  double events_per_s = 0.0;
  double allocs_per_event = 0.0;  ///< steady-state (second half of the run)
};

/// Steady-state schedule/pop cycle: `window` events always in flight at
/// 1/window spacing (denser populations as the node count scales), every
/// fire schedules its successor one period out. The capture (queue, context
/// pointer, timestamp) mirrors a node TX event — too big for libstdc++
/// std::function's inline buffer, comfortably inside Callback's 48 bytes.
template <typename Q>
ChurnResult churn(std::uint64_t total, std::uint64_t window) {
  Q q;
  struct Ctx {
    Q* q;
    std::uint64_t budget;
    std::uint64_t half_mark;  ///< budget level where alloc sampling starts
    std::uint64_t fired = 0;
    std::uint64_t allocs_at_half = 0;
    double sum = 0.0;
  } ctx{&q, total - window, (total - window) / 4, 0, 0, 0.0};
  struct Fire {
    Ctx* c;
    double t;
    double payload;  ///< stand-in for frame metadata a real TX event carries
    void operator()() {
      c->sum += t + payload;
      ++c->fired;
      if (c->budget > 0) {
        if (c->budget-- == c->half_mark) c->allocs_at_half = g_alloc_count;
        const double nt = t + 1.0;
        c->q->schedule(nt, Fire{c, nt, payload});
      }
    }
  };
  const double gap = 1.0 / static_cast<double>(window);
  for (std::uint64_t i = 0; i < window; ++i) {
    const double t = 1.0 + static_cast<double>(i) * gap;
    q.schedule(t, Fire{&ctx, t, 0.5});
  }
  const double start = bench::wall_time_s();
  while (!q.empty()) q.run_next();
  const double elapsed = bench::wall_time_s() - start;
  IOB_ENSURES(ctx.fired == total, "churn must fire every scheduled event");
  ChurnResult r;
  r.events_per_s = static_cast<double>(total) / elapsed;
  // Sample the last quarter of the run: by then the slab, bucket ring and
  // heap have all reached their high-water capacities.
  r.allocs_per_event =
      static_cast<double>(g_alloc_count - ctx.allocs_at_half) / static_cast<double>(ctx.half_mark);
  return r;
}

// ---- timeout churn (ARQ-style cancellation-heavy) ---------------------------

/// Every live fire also schedules `R` timeout events ~1 period out and
/// cancels `R` older outstanding timeouts — the retransmission-timer
/// pattern, where the ACK cancels almost every timer before it fires.
/// Returns live-event throughput (each live event carries 2R timer ops).
template <typename Q, typename Id>
double timeout_churn(std::uint64_t lives, std::uint64_t window, int r, bool burst_prime) {
  Q q;
  struct Ctx {
    Q* q;
    std::vector<Id> ring;
    std::size_t ring_pos = 0;
    std::uint64_t budget;
    std::uint64_t fired = 0;
    double sum = 0.0;
    int r;
  } ctx;
  ctx.q = &q;
  ctx.budget = lives - window;
  ctx.r = r;
  struct Fire {
    Ctx* c;
    double t;
    double payload;
    void operator()() {
      c->sum += t + payload;
      ++c->fired;
      if (c->budget > 0) {
        --c->budget;
        const double nt = t + 1.0;
        c->q->schedule(nt, Fire{c, nt, payload});
        for (int i = 0; i < c->r; ++i) {
          const Id id = c->q->schedule(nt + 1.0, Fire{c, nt + 1.0, payload});
          c->q->cancel(c->ring[c->ring_pos]);
          c->ring[c->ring_pos] = id;
          c->ring_pos = (c->ring_pos + 1) % c->ring.size();
        }
      }
    }
  };
  const double gap = 1.0 / static_cast<double>(window);
  for (std::uint64_t i = 0; i < window; ++i) {
    const double t = 1.0 + static_cast<double>(i) * gap;
    q.schedule(t, Fire{&ctx, t, 0.5});
  }
  // Outstanding timers: either spread over the next window span (a smooth
  // traffic mix) or in one burst at a single deadline (node-join storms,
  // superframe guard timers — where the seed's lazily-deleted heap entries
  // hurt the most).
  ctx.ring.resize(window * static_cast<std::size_t>(r > 0 ? r : 1));
  for (std::size_t i = 0; i < ctx.ring.size(); ++i) {
    const double t =
        burst_prime ? 3.0 : 2.0 + static_cast<double>(i) * gap / static_cast<double>(r > 0 ? r : 1);
    ctx.ring[i] = q.schedule(t, Fire{&ctx, t, 0.5});
  }
  const double start = bench::wall_time_s();
  while (!q.empty()) q.run_next();
  const double elapsed = bench::wall_time_s() - start;
  return static_cast<double>(ctx.fired) / elapsed;
}

// ---- sweep scaling -----------------------------------------------------------

/// One self-contained sweep point: a mini discrete-event run (16 mutually
/// interleaved periodic sources, ~8k events per simulated second) seeded
/// per index.
double sweep_point_work(std::uint64_t seed, double duration_s = 1.0) {
  sim::Simulator s(seed);
  sim::Rng r = s.rng().fork(1);
  double acc = 0.0;
  for (int src = 0; src < 16; ++src) {
    s.every(0.001 * (src + 1), 0.002, [&](sim::Time t) { acc += r.uniform() * t; });
  }
  s.run_until(duration_s);
  return acc;
}

double sweep_points_per_s(std::size_t threads, std::size_t points) {
  const core::SweepRunner runner(threads);
  const double start = bench::wall_time_s();
  const std::vector<double> out = runner.map<double>(points, [](std::size_t i) {
    return sweep_point_work(core::SweepRunner::point_seed(7, i));
  });
  const double elapsed = bench::wall_time_s() - start;
  IOB_ENSURES(out.size() == points, "sweep dropped points");
  return static_cast<double>(points) / elapsed;
}

struct SkewedSweep {
  double points_per_s = 0.0;
  double parallel_efficiency = 0.0;  ///< summed point time / (threads x wall)
};

/// A sweep with the fleet grid's cost shape: contiguous quarters of the
/// range simulate 1x, 1x, 2x and 4x as long, like a node-count-first fleet
/// sweep from n2 to n32. A schedule that binds contiguous blocks of indices
/// to threads leaves the cheap quarters' threads idle behind the last one.
SkewedSweep skewed_sweep(std::size_t threads, std::size_t points) {
  constexpr double kQuarterDuration[] = {1.0, 1.0, 2.0, 4.0};
  const core::SweepRunner runner(threads);
  std::vector<double> point_s(points);
  const double start = bench::wall_time_s();
  const std::vector<double> out = runner.map<double>(points, [&](std::size_t i) {
    const double t0 = bench::wall_time_s();
    const double acc = sweep_point_work(core::SweepRunner::point_seed(7, i),
                                        kQuarterDuration[4 * i / points]);
    point_s[i] = bench::wall_time_s() - t0;
    return acc;
  });
  const double elapsed = bench::wall_time_s() - start;
  IOB_ENSURES(out.size() == points, "sweep dropped points");
  double busy = 0.0;
  for (const double t : point_s) busy += t;
  return {static_cast<double>(points) / elapsed,
          busy / (static_cast<double>(runner.threads()) * elapsed)};
}

// ---- MAC per-frame cost -------------------------------------------------------

/// Transmission attempts (delivered + retried) per host second of one
/// 16-node Wi-R network run, 32 kb/s per leaf in 240 B frames for 600 s of
/// simulated time. `hostile` installs the fleet grid's gym interference
/// level and the running motion profile.
double mac_attempts_per_s(bool hostile) {
  net::NetworkConfig nc;
  nc.seed = 11;
  if (hostile) {
    nc.dynamics.interference = phy::SirLevel{2, 1.0, -5.3};
    nc.dynamics.motion = phy::running_profile();
  }
  net::NetworkSim sim(core::make_bus_link(core::BusKind::kWiR), nc);
  for (int i = 0; i < 16; ++i) {
    net::NodeConfig c;
    c.name = "leaf-" + std::to_string(i);
    c.stream = c.name;
    c.output_rate_bps = 32e3;
    c.phase_s = 1e-3 * i;
    sim.add_node(std::move(c));
  }
  const double start = bench::wall_time_s();
  (void)sim.run(600.0);
  const double elapsed = bench::wall_time_s() - start;
  std::uint64_t attempts = 0;
  for (const comm::MacNodeStats& n : sim.bus().stats().nodes) {
    attempts += n.frames_delivered + n.frames_retried;
  }
  return static_cast<double>(attempts) / elapsed;
}

// ---- google-benchmark registrations -----------------------------------------

void BM_EventChurn_New(benchmark::State& state) {
  const auto window = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(churn<sim::EventQueue>(window * 4, window).events_per_s);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(window) * 4);
}
BENCHMARK(BM_EventChurn_New)->Arg(4096)->Arg(65536)->Unit(benchmark::kMillisecond);

void BM_EventChurn_Legacy(benchmark::State& state) {
  const auto window = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(churn<LegacyEventQueue>(window * 4, window).events_per_s);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(window) * 4);
}
BENCHMARK(BM_EventChurn_Legacy)->Arg(4096)->Arg(65536)->Unit(benchmark::kMillisecond);

void BM_TimeoutChurn_New(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(timeout_churn<sim::EventQueue, sim::EventId>(65536, 16384, 4, false));
  }
}
BENCHMARK(BM_TimeoutChurn_New)->Unit(benchmark::kMillisecond);

void BM_TimeoutChurn_Legacy(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(timeout_churn<LegacyEventQueue, std::uint64_t>(65536, 16384, 4, false));
  }
}
BENCHMARK(BM_TimeoutChurn_Legacy)->Unit(benchmark::kMillisecond);

void BM_SweepRunner_Threads(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sweep_points_per_s(threads, 32));
  }
}
BENCHMARK(BM_SweepRunner_Threads)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

// ---- headline summary --------------------------------------------------------

template <typename F>
double best_of(int n, F f) {
  double best = 0.0;
  for (int i = 0; i < n; ++i) best = std::max(best, f());
  return best;
}

void print_headline() {
  std::printf("perf_sim_core — event-core and sweep-engine throughput\n\n");
  bench::JsonReporter json("perf_sim_core");

  // Plain schedule/pop churn at a deep window (fleet-scale population).
  constexpr std::uint64_t kWindow = 65536;
  constexpr std::uint64_t kEvents = 16 * kWindow;
  churn<sim::EventQueue>(kEvents / 4, kWindow);  // warm-up
  churn<LegacyEventQueue>(kEvents / 4, kWindow);
  ChurnResult new_alloc_probe;
  const double new_eps = best_of(3, [&] {
    new_alloc_probe = churn<sim::EventQueue>(kEvents, kWindow);
    return new_alloc_probe.events_per_s;
  });
  ChurnResult legacy_alloc_probe;
  const double legacy_eps = best_of(3, [&] {
    legacy_alloc_probe = churn<LegacyEventQueue>(kEvents, kWindow);
    return legacy_alloc_probe.events_per_s;
  });
  std::printf("schedule/pop churn (W=%llu): %10.3g ev/s (two-band)  vs %10.3g ev/s (seed)  -> %.1fx\n",
              static_cast<unsigned long long>(kWindow), new_eps, legacy_eps,
              new_eps / legacy_eps);
  std::printf("steady-state allocations  : %10.3f per event (two-band) vs %.3f (seed)\n",
              new_alloc_probe.allocs_per_event, legacy_alloc_probe.allocs_per_event);

  // Timeout churn: the ARQ/MAC-guard pattern (80%% of timers cancelled).
  constexpr std::uint64_t kTimeoutWindow = 262144;
  constexpr std::uint64_t kTimeoutLives = 6 * kTimeoutWindow;
  constexpr int kTimeoutsPerFire = 4;
  timeout_churn<sim::EventQueue, sim::EventId>(kTimeoutLives / 4, kTimeoutWindow,
                                               kTimeoutsPerFire, false);  // warm-up
  timeout_churn<LegacyEventQueue, std::uint64_t>(kTimeoutLives / 4, kTimeoutWindow,
                                                 kTimeoutsPerFire, false);
  const double new_tps = best_of(2, [&] {
    return timeout_churn<sim::EventQueue, sim::EventId>(kTimeoutLives, kTimeoutWindow,
                                                        kTimeoutsPerFire, false);
  });
  const double legacy_tps = best_of(2, [&] {
    return timeout_churn<LegacyEventQueue, std::uint64_t>(kTimeoutLives, kTimeoutWindow,
                                                          kTimeoutsPerFire, false);
  });
  std::printf("timeout churn (80%% cancel): %10.3g live-ev/s      vs %10.3g live-ev/s   -> %.1fx\n",
              new_tps, legacy_tps, new_tps / legacy_tps);
  const double new_bps = best_of(2, [&] {
    return timeout_churn<sim::EventQueue, sim::EventId>(kTimeoutLives, kTimeoutWindow,
                                                        kTimeoutsPerFire, true);
  });
  const double legacy_bps = best_of(2, [&] {
    return timeout_churn<LegacyEventQueue, std::uint64_t>(kTimeoutLives, kTimeoutWindow,
                                                          kTimeoutsPerFire, true);
  });
  std::printf("timeout churn (burst)     : %10.3g live-ev/s      vs %10.3g live-ev/s   -> %.1fx\n",
              new_bps, legacy_bps, new_bps / legacy_bps);

  json.add("events_per_s", new_eps);
  json.add("events_per_s_legacy", legacy_eps);
  json.add("event_churn_speedup", new_eps / legacy_eps);
  json.add("steady_allocs_per_event", new_alloc_probe.allocs_per_event);
  json.add("steady_allocs_per_event_legacy", legacy_alloc_probe.allocs_per_event);
  json.add("timeout_events_per_s", new_tps);
  json.add("timeout_events_per_s_legacy", legacy_tps);
  json.add("timeout_churn_speedup", new_tps / legacy_tps);
  json.add("timeout_burst_events_per_s", new_bps);
  json.add("timeout_burst_events_per_s_legacy", legacy_bps);
  json.add("timeout_burst_churn_speedup", new_bps / legacy_bps);

  std::printf("\nsweep scaling (32 points x ~8k events each):\n");
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    const double pps = sweep_points_per_s(threads, 32);
    std::printf("  %zu thread(s): %8.2f points/s\n", threads, pps);
    json.add("sweep_points_per_s_t" + std::to_string(threads), pps);
  }

  // Threads are capped at the host's CPUs, so the efficiency reads the
  // schedule, not oversubscription.
  const std::size_t host_cpus = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t skew_threads = std::min<std::size_t>(4, host_cpus);
  SkewedSweep skewed;
  for (int rep = 0; rep < 3; ++rep) {
    const SkewedSweep run = skewed_sweep(skew_threads, 64);
    if (run.points_per_s > skewed.points_per_s) skewed = run;
  }
  std::printf("  skewed 1x/1x/2x/4x, %zu thread(s) of %zu CPUs: %8.2f points/s, efficiency %.2f\n",
              skew_threads, host_cpus, skewed.points_per_s, skewed.parallel_efficiency);
  json.add("sweep_skewed_points_per_s", skewed.points_per_s);
  json.add("sweep_skewed_parallel_efficiency", skewed.parallel_efficiency);
  json.add("sweep_skewed_threads", static_cast<double>(skew_threads));
  json.add("sweep_host_cpus", static_cast<double>(host_cpus));

  const double mac_clean = best_of(3, [] { return mac_attempts_per_s(false); });
  const double mac_hostile = best_of(3, [] { return mac_attempts_per_s(true); });
  std::printf("\nMAC attempts (16-node Wi-R, 600 s sim): %10.3g /s clean, %10.3g /s gym+running\n",
              mac_clean, mac_hostile);
  json.add("mac_attempts_per_s_clean", mac_clean);
  json.add("mac_attempts_per_s_hostile", mac_hostile);
  json.write();
}

}  // namespace

int main(int argc, char** argv) {
  print_headline();
  return iob::bench::run_microbenchmarks(argc, argv);
}
