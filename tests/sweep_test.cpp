// Unit tests for the parallel sweep engine: sim::TaskPool (work-claiming
// scheduling, exception propagation) and core::SweepRunner (bit-exact
// determinism at every thread count — the contract every parallel sweep in
// the repo relies on).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "comm/wir_link.hpp"
#include "core/explorer.hpp"
#include "core/sweep_runner.hpp"
#include "energy/battery.hpp"
#include "nn/model_zoo.hpp"
#include "partition/cost_model.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/task_pool.hpp"

namespace iob {
namespace {

// ---- TaskPool ---------------------------------------------------------------

TEST(TaskPool, ParallelForVisitsEveryIndexOnce) {
  for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
    sim::TaskPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
    for (const std::size_t n : {1u, 7u, 64u, 1000u}) {
      std::vector<std::atomic<int>> hits(n);
      pool.parallel_for(n, [&](std::size_t begin, std::size_t end) {
        EXPECT_LT(begin, end);
        EXPECT_LE(end, n);
        for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "n " << n << " threads " << threads << " index " << i;
      }
    }
  }
}

TEST(TaskPool, ClaimingDrainsAroundAStuckIndex) {
  // Index 0 blocks until every other index has run. Under a static
  // schedule the indices after 0 in its own chunk wait behind it, so this
  // only completes when idle threads claim them.
  constexpr std::size_t kN = 64;
  for (const std::size_t threads : {2u, 4u}) {
    sim::TaskPool pool(threads);
    std::mutex m;
    std::condition_variable cv;
    std::size_t others_done = 0;
    bool timed_out = false;
    pool.parallel_for(kN, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        std::unique_lock<std::mutex> lock(m);
        if (i == 0) {
          timed_out = !cv.wait_for(lock, std::chrono::seconds(10),
                                   [&] { return others_done == kN - 1; });
        } else if (++others_done == kN - 1) {
          cv.notify_all();
        }
      }
    });
    if (timed_out) FAIL() << "index 0 waited 10 s with " << others_done << " of " << kN - 1
                          << " other indices done at " << threads << " threads";
  }
}

TEST(TaskPool, HandlesFewerItemsThanThreads) {
  sim::TaskPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(3, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  pool.parallel_for(0, [&](std::size_t, std::size_t) { FAIL() << "empty range ran"; });
}

TEST(TaskPool, PropagatesExceptionsToCaller) {
  sim::TaskPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t begin, std::size_t) {
                          if (begin == 0) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool stays usable after a failed job.
  std::atomic<int> ok{0};
  pool.parallel_for(10, [&](std::size_t begin, std::size_t end) {
    ok += static_cast<int>(end - begin);
  });
  EXPECT_EQ(ok.load(), 10);
}

TEST(TaskPool, ReusableAcrossManyJobs) {
  sim::TaskPool pool(3);
  std::atomic<long> total{0};
  for (int job = 0; job < 50; ++job) {
    pool.parallel_for(64, [&](std::size_t begin, std::size_t end) {
      total += static_cast<long>(end - begin);
    });
  }
  EXPECT_EQ(total.load(), 50 * 64);
}

// ---- SweepRunner determinism ------------------------------------------------

/// A sweep point with real simulation content: its own Simulator, forked
/// RNG streams, periodic events. Any nondeterminism in the fan-out would
/// show up as bit drift in the result.
double sim_point(std::uint64_t seed) {
  sim::Simulator s(seed);
  sim::Rng r = s.rng().fork(3);
  double acc = 0.0;
  for (int src = 0; src < 4; ++src) {
    s.every(0.01 * (src + 1), 0.05, [&](sim::Time t) { acc += r.uniform() * t; });
  }
  s.run_until(2.0);
  return acc;
}

TEST(SweepRunner, ParallelResultsBitExactAcrossThreadCounts) {
  constexpr std::size_t kPoints = 64;
  const auto run = [&](std::size_t threads) {
    const core::SweepRunner runner(threads);
    return runner.map<double>(kPoints, [](std::size_t i) {
      return sim_point(core::SweepRunner::point_seed(42, i));
    });
  };
  const std::vector<double> serial = run(1);
  ASSERT_EQ(serial.size(), kPoints);
  for (const std::size_t threads : {2u, 8u}) {
    const std::vector<double> parallel = run(threads);
    ASSERT_EQ(parallel.size(), kPoints);
    // Bit-exact, not approximately equal.
    EXPECT_EQ(std::memcmp(serial.data(), parallel.data(), kPoints * sizeof(double)), 0)
        << "thread count " << threads;
  }
}

TEST(SweepRunner, MapAsyncIsByteIdenticalToMapAndOverlapsCaller) {
  // map_async must yield exactly map()'s bytes (same pool, same claiming,
  // same index-order merge), and the caller thread must be free to work
  // while the batch runs — the overlap Fleet::run_streaming relies on.
  constexpr std::size_t kPoints = 64;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const core::SweepRunner runner(threads);
    const std::function<double(std::size_t)> fn = [](std::size_t i) {
      return sim_point(core::SweepRunner::point_seed(42, i));
    };
    const std::vector<double> sync = runner.map<double>(kPoints, fn);

    core::BatchFuture<double> batch = runner.map_async<double>(kPoints, fn);
    EXPECT_TRUE(batch.valid());
    // Caller-side work while the batch executes on the helper thread.
    double folded = 0.0;
    for (std::size_t i = 0; i < 1000; ++i) folded += static_cast<double>(i);
    const std::vector<double> async = batch.get();
    EXPECT_FALSE(batch.valid());

    ASSERT_EQ(async.size(), sync.size());
    EXPECT_EQ(std::memcmp(sync.data(), async.data(), kPoints * sizeof(double)), 0)
        << "thread count " << threads;
    EXPECT_GT(folded, 0.0);
  }
}

TEST(SweepRunner, PointSeedsAreDeterministicAndDistinct) {
  EXPECT_EQ(core::SweepRunner::point_seed(7, 3), core::SweepRunner::point_seed(7, 3));
  EXPECT_NE(core::SweepRunner::point_seed(7, 3), core::SweepRunner::point_seed(7, 4));
  EXPECT_NE(core::SweepRunner::point_seed(7, 3), core::SweepRunner::point_seed(8, 3));
}

TEST(SweepRunner, MapOverForwardsInputsAndIndices) {
  const core::SweepRunner runner(2);
  const std::vector<int> inputs{10, 20, 30, 40, 50};
  const std::vector<double> out = runner.map_over<double, int>(
      inputs, [](const int& v, std::size_t i) { return v + static_cast<double>(i); });
  ASSERT_EQ(out.size(), inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], inputs[i] + static_cast<double>(i));
  }
}

// ---- Explorer through the runner --------------------------------------------

TEST(SweepRunner, ExplorerSweepMatchesSerialBitExact) {
  const core::DesignSpaceExplorer ex(energy::Battery::coin_cell_1000mah());
  const std::vector<core::Fig3Point> serial = ex.sweep(100.0, 1e7, 4);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const core::SweepRunner runner(threads);
    const std::vector<core::Fig3Point> parallel = ex.sweep(runner, 100.0, 1e7, 4);
    ASSERT_EQ(parallel.size(), serial.size()) << "thread count " << threads;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      // Every field bit-exact (doubles compared by equality on purpose).
      EXPECT_EQ(serial[i].rate_bps, parallel[i].rate_bps);
      EXPECT_EQ(serial[i].sense_power_w, parallel[i].sense_power_w);
      EXPECT_EQ(serial[i].comm_power_w, parallel[i].comm_power_w);
      EXPECT_EQ(serial[i].total_power_w, parallel[i].total_power_w);
      EXPECT_EQ(serial[i].life_days, parallel[i].life_days);
      EXPECT_EQ(serial[i].life_class, parallel[i].life_class);
    }
  }
}

TEST(SweepRunner, LogGridMatchesHistoricalSerialLoop) {
  const std::vector<double> grid = core::log_grid(100.0, 1e6, 3);
  // Exactly the seed's accumulation: repeated multiplication by 10^(1/3).
  const double step = std::pow(10.0, 1.0 / 3.0);
  std::vector<double> expected;
  for (double r = 100.0; r <= 1e6 * 1.0000001; r *= step) expected.push_back(r);
  ASSERT_EQ(grid.size(), expected.size());
  for (std::size_t i = 0; i < grid.size(); ++i) EXPECT_EQ(grid[i], expected[i]);
}

TEST(SweepRunner, CrossoverParallelBitExactAcrossThreadCountsAndInBracket) {
  const nn::Model m = nn::make_kws_dscnn();
  comm::WiRLink wir;
  partition::CostModel base;
  base.leaf_hub = partition::CostModel::leg_from_link(wir, 100e3);
  base.hub_cloud = partition::CostModel::default_uplink();

  const core::SweepRunner serial(1);
  const double c1 = core::offload_crossover_energy_per_bit_j(m, base, serial);
  for (const std::size_t threads : {2u, 8u}) {
    const core::SweepRunner runner(threads);
    const double cn = core::offload_crossover_energy_per_bit_j(m, base, runner);
    EXPECT_EQ(c1, cn) << "thread count " << threads;  // bit-exact
  }
  // The runner-less overload delegates to the same grid refinement on a
  // 1-thread pool, so it is exactly equal — and the crossover sits in the
  // physically meaningful bracket (above Wi-R, below BLE).
  const double bisect = core::offload_crossover_energy_per_bit_j(m, base);
  EXPECT_EQ(c1, bisect);
  EXPECT_GT(c1, 100e-12);
  EXPECT_LT(c1, 15e-9);
}

}  // namespace
}  // namespace iob
