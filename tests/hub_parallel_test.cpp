// Tests for the hub's parallel metered engine: byte-identical
// SessionStats across engine thread counts (deep single-group flushes and
// small multi-group, multi-precision ones), TaskPool reentrancy guarding,
// zero steady-state allocations on per-thread workspaces, and a
// hand-computed two-session energy attribution under the parallel engine.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/wir_link.hpp"
#include "common/alloc_interposer.hpp"  // defines global operator new/delete
#include "core/sweep_runner.hpp"
#include "net/network_sim.hpp"
#include "nn/model.hpp"
#include "nn/model_zoo.hpp"
#include "nn/tensor.hpp"
#include "nn/workspace.hpp"
#include "sim/task_pool.hpp"

namespace iob {
namespace {

std::atomic<std::uint64_t>& g_alloc_count = iob::alloc_interposer::new_calls;

using namespace iob::nn;

// ---- engine-thread determinism ----------------------------------------------

/// Everything but measured CPU time (and the energy derived from it) is
/// bit-identical across engine thread counts: the plan never depends on
/// the thread count, only which thread times an item does.
void expect_counts_identical(const net::SessionStats& a, const net::SessionStats& b,
                             const std::string& what) {
  EXPECT_EQ(a.bytes_in, b.bytes_in) << what;
  EXPECT_EQ(a.inferences, b.inferences) << what;
  EXPECT_EQ(a.executed_inferences, b.executed_inferences) << what;
  EXPECT_EQ(a.batched_inferences, b.batched_inferences) << what;
  EXPECT_EQ(a.batched_passes, b.batched_passes) << what;
  EXPECT_EQ(a.uplink_energy_j, b.uplink_energy_j) << what;
  EXPECT_EQ(a.analytic_compute_energy_j, b.analytic_compute_energy_j) << what;
  EXPECT_EQ(a.queued_latency_s.count(), b.queued_latency_s.count()) << what;
  EXPECT_EQ(a.queued_latency_s.sum(), b.queued_latency_s.sum()) << what;
}

/// Three sessions sharing one metered ecg model, with `bytes_per_inference`
/// small enough that each delivered frame stages a many-item plan — the
/// engine actually fans out at threads > 1.
std::vector<net::SessionStats> run_parallel_metered(const Model& ecg, unsigned threads) {
  net::NetworkConfig cfg;
  cfg.seed = 11;
  cfg.hub.batch_window = 4;
  cfg.hub.execute_and_meter = true;
  cfg.hub.engine_threads = threads;
  net::NetworkSim net(std::make_unique<comm::WiRLink>(), cfg);
  const char* streams[] = {"ecg-a", "ecg-b", "ecg-c"};
  for (const char* stream : streams) {
    net::NodeConfig n;
    n.name = stream;
    n.stream = stream;
    n.output_rate_bps = 64e3;
    n.frame_bytes = 240;
    net.add_node(n);
    net::SessionConfig s;
    s.stream = stream;
    s.macs_per_inference = 185'000;
    s.bytes_per_inference = 4;  // 60 staged inferences per frame: >= 8 plan items
    s.model = "ecg-cnn1d";
    s.weight_bytes = 9'000;
    s.net = &ecg;
    net.add_session(s);
  }
  net.run(0.3);
  std::vector<net::SessionStats> out;
  for (const char* stream : streams) out.push_back(net.hub().session(stream));
  return out;
}

TEST(HubParallel, MeteredStatsBitIdenticalAcrossEngineThreads) {
  const Model ecg = make_ecg_cnn1d();
  const std::vector<net::SessionStats> serial = run_parallel_metered(ecg, 1);
  ASSERT_EQ(serial.size(), 3u);
  ASSERT_GT(serial[0].executed_inferences, 100u);  // many-item plans ran

  for (const unsigned threads : {2u, 8u}) {
    const std::vector<net::SessionStats> parallel = run_parallel_metered(ecg, threads);
    for (std::size_t i = 0; i < serial.size(); ++i) {
      expect_counts_identical(serial[i], parallel[i],
                              std::to_string(threads) + " threads, session " + std::to_string(i));
      // CPU time is host-dependent, but every session was metered.
      EXPECT_GT(parallel[i].kernel_time_s, 0.0) << threads << " threads, session " << i;
    }
  }
}

/// The flush shape the per-pass engine never parallelized: two model
/// groups x two precisions, one session each flushed every superframe, so
/// every (group, precision) pass is far below the sub-batch cap and the
/// flush's plan is a handful of single-digit items across groups.
std::vector<net::SessionStats> run_interactive_metered(const Model& kws, const Model& ecg,
                                                       unsigned threads) {
  net::NetworkConfig cfg;
  cfg.seed = 5;
  cfg.hub.batch_window = 1;
  cfg.hub.execute_and_meter = true;
  cfg.hub.engine_threads = threads;
  net::NetworkSim net(std::make_unique<comm::WiRLink>(), cfg);
  const char* streams[] = {"kws-f32", "kws-int8", "ecg-f32", "ecg-int8"};
  for (int i = 0; i < 4; ++i) {
    const Model& m = i < 2 ? kws : ecg;
    net::NodeConfig n;
    n.name = streams[i];
    n.stream = streams[i];
    n.output_rate_bps = 4.8e3;  // 10 frames/s
    n.frame_bytes = 60;
    net.add_node(n);
    net::SessionConfig s;
    s.stream = streams[i];
    s.model = m.name();
    s.net = &m;
    s.macs_per_inference = m.total_macs();
    s.weight_bytes = m.total_params();
    s.bytes_per_inference = 20;  // 3 inferences per frame, far below the cap
    s.precision = (i % 2) == 0 ? Precision::kF32 : Precision::kInt8;
    net.add_session(s);
  }
  net.run(1.0);
  std::vector<net::SessionStats> out;
  for (const char* stream : streams) out.push_back(net.hub().session(stream));
  return out;
}

TEST(HubParallel, InteractiveMultiGroupFlushBitIdenticalAcrossEngineThreads) {
  const Model kws = make_kws_dscnn();
  const Model ecg = make_ecg_cnn1d();
  const std::vector<net::SessionStats> serial = run_interactive_metered(kws, ecg, 1);
  ASSERT_EQ(serial.size(), 4u);
  for (const net::SessionStats& st : serial) {
    ASSERT_GE(st.batched_passes, 8u);  // many small flushes, not one big one
    ASSERT_LT(st.batched_inferences, 8u * st.batched_passes);  // below the cap per pass
    EXPECT_EQ(st.executed_inferences, st.inferences);
  }
  for (const unsigned threads : {2u, 8u}) {
    const std::vector<net::SessionStats> parallel = run_interactive_metered(kws, ecg, threads);
    for (std::size_t i = 0; i < serial.size(); ++i) {
      expect_counts_identical(serial[i], parallel[i],
                              std::to_string(threads) + " threads, session " + std::to_string(i));
      EXPECT_EQ(parallel[i].executed_inferences, parallel[i].inferences);
      EXPECT_GT(parallel[i].kernel_time_s, 0.0) << threads << " threads, session " << i;
    }
  }
}

// ---- TaskPool reentrancy guard ----------------------------------------------

TEST(TaskPoolGuard, NestedParallelForThrowsAndPoolStaysUsable) {
  sim::TaskPool pool(2);
  EXPECT_FALSE(pool.in_flight());
  EXPECT_FALSE(sim::TaskPool::in_parallel_region());

  std::atomic<int> nested_throws{0};
  std::atomic<int> region_hits{0};
  pool.parallel_for(4, [&](std::size_t begin, std::size_t end) {
    if (sim::TaskPool::in_parallel_region()) region_hits.fetch_add(1);
    for (std::size_t i = begin; i < end; ++i) {
      if (i == 0) {
        // Re-entering the busy pool must throw instead of deadlocking,
        // and must not poison the outer job.
        try {
          pool.parallel_for(2, [](std::size_t, std::size_t) {});
        } catch (const std::invalid_argument&) {
          nested_throws.fetch_add(1);
        }
      }
    }
  });
  EXPECT_EQ(nested_throws.load(), 1);
  EXPECT_GT(region_hits.load(), 0);
  EXPECT_FALSE(pool.in_flight());
  EXPECT_FALSE(sim::TaskPool::in_parallel_region());

  // The guard cleared: the pool still runs full jobs afterwards.
  std::atomic<std::size_t> covered{0};
  pool.parallel_for(16, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) covered.fetch_add(i);
  });
  EXPECT_EQ(covered.load(), 16u * 15u / 2u);
}

TEST(TaskPoolGuard, InlineSerialPathAlsoMarksTheParallelRegion) {
  // thread_count 1 runs the body inline, but the nesting probe must still
  // fire — the hub's degrade-to-serial rule keys off it.
  sim::TaskPool pool(1);
  bool inside = false;
  pool.parallel_for(1, [&](std::size_t, std::size_t) {
    inside = sim::TaskPool::in_parallel_region();
  });
  EXPECT_TRUE(inside);
  EXPECT_FALSE(sim::TaskPool::in_parallel_region());
}

// ---- zero steady-state allocations ------------------------------------------

TEST(HubParallel, PerThreadWorkspacesAllocateNothingInSteadyState) {
  // The parallel engine's contract: each worker owns a grow-only workspace,
  // so once warmed, repeated batched passes on every thread touch the heap
  // zero times. Reproduce the fan-out shape directly on a TaskPool.
  const Model ecg = make_ecg_cnn1d();
  const Tensor input = stack_batch(
      {patterned_tensor(ecg.input_shape(), 1), patterned_tensor(ecg.input_shape(), 2)});
  sim::TaskPool pool(2);
  Workspace ws[2];

  // Built once so re-running the job costs no std::function heap traffic.
  const sim::TaskPool::RangeBody body = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const ConstSpan logits = ecg.run_into(ws[i], input.data(), 2);
      ASSERT_GT(logits.size, 0);
    }
  };
  pool.parallel_for(2, body);  // warm-up: arenas grow here

  const std::uint64_t before = g_alloc_count.load();
  for (int round = 0; round < 3; ++round) pool.parallel_for(2, body);
  EXPECT_EQ(g_alloc_count.load() - before, 0u);
}

// ---- hand-computed energy attribution ---------------------------------------

TEST(HubParallel, TwoSessionGroupSplitsMeteredTimeByInferenceShare) {
  // batch_window 1000 never flushes mid-run at these rates, so the single
  // end-of-run flush folds both sessions into ONE metered pass, planned as
  // many items run across the engine pool and summed back in plan order —
  // making the time-share attribution exactly checkable. Session "fine"
  // windows 80 B, "coarse" 240 B: every 240 B frame stages 3 vs 1
  // inferences, so fine's batched count and time share are exactly 3x.
  const Model ecg = make_ecg_cnn1d();
  net::NetworkConfig cfg;
  cfg.seed = 11;
  cfg.hub.batch_window = 1000;
  cfg.hub.execute_and_meter = true;
  cfg.hub.engine_threads = 2;
  net::NetworkSim net(std::make_unique<comm::WiRLink>(), cfg);
  const std::uint64_t windows[] = {80, 240};
  const char* streams[] = {"fine", "coarse"};
  for (int i = 0; i < 2; ++i) {
    net::NodeConfig n;
    n.name = streams[i];
    n.stream = streams[i];
    n.output_rate_bps = 64e3;
    n.frame_bytes = 240;
    net.add_node(n);
    net::SessionConfig s;
    s.stream = streams[i];
    s.macs_per_inference = 185'000;
    s.bytes_per_inference = windows[i];
    s.model = "ecg-cnn1d";
    s.weight_bytes = 9'000;
    s.net = &ecg;
    net.add_session(s);
  }
  net.run(0.35);

  const net::SessionStats& fine = net.hub().session("fine");
  const net::SessionStats& coarse = net.hub().session("coarse");
  ASSERT_GT(coarse.batched_inferences, 8u);
  // One fold each (the final flush), staging enough for >= 2 plan items of
  // at most 8 inferences, so the pass really fans out.
  EXPECT_EQ(fine.batched_passes, 1u);
  EXPECT_EQ(coarse.batched_passes, 1u);
  ASSERT_GT(fine.batched_inferences + coarse.batched_inferences, 8u);

  // 3 fine windows per coarse window out of identical byte streams.
  EXPECT_EQ(fine.batched_inferences, 3u * coarse.batched_inferences);
  EXPECT_EQ(fine.executed_inferences, fine.batched_inferences);
  EXPECT_EQ(coarse.executed_inferences, coarse.batched_inferences);

  // Single pass: measured energy is exactly time x platform power, and the
  // time split follows the inference share bit-for-bit.
  const double power = net.hub().config().compute_power_w;
  EXPECT_EQ(fine.compute_energy_j, fine.kernel_time_s * power);
  EXPECT_EQ(coarse.compute_energy_j, coarse.kernel_time_s * power);
  EXPECT_GT(fine.kernel_time_s, coarse.kernel_time_s);
}

}  // namespace
}  // namespace iob
