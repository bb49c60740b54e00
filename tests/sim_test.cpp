// Unit tests for src/sim: RNG determinism & distributions, event queue
// ordering (including the calendar-wheel band and its rebuilds), the
// small-buffer callback type, simulator scheduling, statistics, tracing.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/alloc_interposer.hpp"  // defines global operator new/delete
#include "sim/callback.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"

namespace iob::sim {
namespace {

// ---- Rng --------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformBoundedRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
  EXPECT_THROW(r.uniform(2.0, 1.0), std::invalid_argument);
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng r(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = r.uniform_int(0, 9);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 9);
    saw_lo |= (v == 0);
    saw_hi |= (v == 9);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  Rng r(11);
  Accumulator acc, sq_dev;
  for (int i = 0; i < 50000; ++i) {
    const double x = r.normal(2.0, 3.0);
    acc.add(x);
    sq_dev.add((x - 2.0) * (x - 2.0));
  }
  EXPECT_NEAR(acc.mean(), 2.0, 0.1);
  EXPECT_NEAR(std::sqrt(sq_dev.mean()), 3.0, 0.1);
}

TEST(Rng, ExponentialMean) {
  Rng r(13);
  Accumulator acc;
  for (int i = 0; i < 50000; ++i) acc.add(r.exponential(0.5));
  EXPECT_NEAR(acc.mean(), 0.5, 0.02);
  for (int i = 0; i < 100; ++i) EXPECT_GE(r.exponential(1.0), 0.0);
}

TEST(Rng, BernoulliFrequency) {
  Rng r(17);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += r.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / 20000.0, 0.3, 0.02);
  EXPECT_THROW(r.bernoulli(1.5), std::invalid_argument);
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng parent(23);
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
  // Forking is deterministic too.
  Rng c = Rng(23).fork(1);
  Rng d = Rng(23).fork(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(c.next_u64(), d.next_u64());
}

// ---- EventQueue -------------------------------------------------------------

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoAtEqualTimes) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.run_next();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule(1.0, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));  // double-cancel is a no-op
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId early = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  q.cancel(early);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
}

TEST(EventQueue, RejectsInvalidSchedules) {
  EventQueue q;
  EXPECT_THROW(q.schedule(-1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(q.schedule(1.0, EventQueue::Action{}), std::invalid_argument);
}

TEST(EventQueue, StaleHandleAfterSlotReuseIsRejected) {
  EventQueue q;
  const EventId a = q.schedule(1.0, [] {});
  ASSERT_TRUE(q.cancel(a));
  // The slot is recycled for the next event; the stale handle must not be
  // able to cancel it.
  const EventId b = q.schedule(2.0, [] {});
  EXPECT_FALSE(q.cancel(a));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.cancel(b));
}

// The satellite stress test: interleaved schedule/cancel churn, asserting
// FIFO tie-break order and size() accounting against a reference model
// (a std::multimap ordered by the same (when, seq) key). The population is
// driven well past the wheel-activation threshold and across several
// geometry regimes (clustered, uniform, far-future bursts) so both bands,
// lap turnover, and the adaptive rebuilds are all exercised.
TEST(EventQueue, StressChurnMatchesReferenceModel) {
  EventQueue q;
  Rng rng(2024);
  // Reference: key -> payload; ordered exactly like the queue pops.
  std::map<std::pair<Time, std::uint64_t>, int> model;
  std::vector<std::pair<EventId, std::pair<Time, std::uint64_t>>> live_handles;
  std::vector<int> fired;
  int next_payload = 0;
  std::uint64_t seq = 0;
  Time now = 0.0;

  const auto schedule_one = [&](Time when) {
    const int payload = next_payload++;
    const EventId id = q.schedule(when, [&fired, payload] { fired.push_back(payload); });
    model.emplace(std::make_pair(when, seq), payload);
    live_handles.emplace_back(id, std::make_pair(when, seq));
    ++seq;
  };

  for (int round = 0; round < 2000; ++round) {
    // Mixed time profile: clustered equal times (FIFO ties), near-future
    // uniform, and occasional far-future bursts.
    const double u = rng.uniform();
    Time when;
    if (u < 0.3) {
      when = now + 1.0;  // equal-time cluster -> FIFO ordering must hold
    } else if (u < 0.9) {
      when = now + rng.uniform(0.0, 5.0);
    } else {
      when = now + rng.uniform(100.0, 1000.0);  // far band
    }
    const int burst = static_cast<int>(rng.uniform_int(1, 120));
    for (int i = 0; i < burst; ++i) schedule_one(when + 0.001 * i);

    // Cancel a random subset of outstanding events.
    const int cancels = static_cast<int>(rng.uniform_int(0, burst / 2));
    for (int i = 0; i < cancels && !live_handles.empty(); ++i) {
      const auto idx =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(live_handles.size()) - 1));
      const auto [id, key] = live_handles[idx];
      const bool was_live = model.erase(key) > 0;
      EXPECT_EQ(q.cancel(id), was_live);
      live_handles[idx] = live_handles.back();
      live_handles.pop_back();
    }
    ASSERT_EQ(q.size(), model.size());

    // Pop a few events and check they fire in exactly the model's order.
    const int pops = static_cast<int>(rng.uniform_int(0, 80));
    for (int i = 0; i < pops && !model.empty(); ++i) {
      const auto expected = model.begin();
      ASSERT_EQ(q.next_time(), expected->first.first);
      fired.clear();
      const Time t = q.run_next();
      now = std::max(now, t);
      ASSERT_EQ(fired.size(), 1u);
      ASSERT_EQ(fired[0], expected->second);
      ASSERT_EQ(t, expected->first.first);
      model.erase(expected);
      ASSERT_EQ(q.size(), model.size());
    }
  }
  EXPECT_TRUE(q.wheel_active());  // the stress must have exercised the wheel

  // Drain: remaining pops must follow the model order exactly.
  while (!model.empty()) {
    const auto expected = model.begin();
    fired.clear();
    ASSERT_EQ(q.run_next(), expected->first.first);
    ASSERT_EQ(fired.size(), 1u);
    ASSERT_EQ(fired[0], expected->second);
    model.erase(expected);
  }
  EXPECT_TRUE(q.empty());

  // Physical census must agree: no entries lost or duplicated across bands.
  const auto c = q.debug_counts();
  EXPECT_EQ(c.live_count, 0u);
  EXPECT_EQ(c.wheel_ahead, 0u);
  EXPECT_EQ(c.wheel_behind, 0u);
  EXPECT_EQ(c.heap_live, 0u);
}

TEST(EventQueue, FifoPreservedAcrossWheelActivation) {
  // Schedule far more equal-time events than the activation threshold; the
  // pop order must stay the exact insertion order through activation and
  // rebuilds.
  EventQueue q;
  std::vector<int> order;
  constexpr int kEvents = 3000;
  for (int i = 0; i < kEvents; ++i) {
    q.schedule(5.0, [&order, i] { order.push_back(i); });
  }
  EXPECT_TRUE(q.wheel_active());
  while (!q.empty()) q.run_next();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kEvents));
  for (int i = 0; i < kEvents; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, MillionPendingDifferentialStress) {
  // Population-scale pressure on the flat-ring wheel (docs/scaling.md): one
  // million pending events across ~1k distinct timestamps (so each bucket
  // holds hundreds of FIFO ties), a cancelled subset, then a full drain.
  // The reference order is a stable sort by time — stability IS the FIFO
  // tie contract, so any tie broken by the ring's chain harvesting,
  // compaction or cursor sort shows up as a payload mismatch.
  constexpr std::size_t kEvents = 1'000'000;
  constexpr std::size_t kDistinctTimes = 1024;

  EventQueue q;
  q.reserve(kEvents);

  struct Ref {
    double when;
    int payload;
  };
  std::vector<Ref> ref;
  ref.reserve(kEvents);
  std::vector<EventId> ids;
  ids.reserve(kEvents);
  std::vector<int> fired;
  fired.reserve(kEvents);

  Rng rng(991);
  for (std::size_t i = 0; i < kEvents; ++i) {
    const double when =
        1.0 + 0.001 * static_cast<double>(rng.uniform_int(0, static_cast<std::int64_t>(kDistinctTimes) - 1));
    const int payload = static_cast<int>(i);
    ids.push_back(q.schedule(when, [&fired, payload] { fired.push_back(payload); }));
    ref.push_back({when, payload});
  }
  ASSERT_EQ(q.size(), kEvents);
  EXPECT_TRUE(q.wheel_active());

  // Cancel every 7th event (lazy deletion: the ring compacts them away
  // during cursor harvesting).
  std::vector<Ref> live;
  live.reserve(kEvents);
  for (std::size_t i = 0; i < kEvents; ++i) {
    if (i % 7 == 0) {
      EXPECT_TRUE(q.cancel(ids[i]));
    } else {
      live.push_back(ref[i]);
    }
  }
  ASSERT_EQ(q.size(), live.size());

  // std::stable_sort keeps insertion order inside equal-time runs — the
  // exact pop order the queue must reproduce.
  std::stable_sort(live.begin(), live.end(),
                   [](const Ref& a, const Ref& b) { return a.when < b.when; });

  Time prev = 0.0;
  while (!q.empty()) {
    const Time t = q.run_next();
    ASSERT_GE(t, prev);
    prev = t;
  }
  ASSERT_EQ(fired.size(), live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    ASSERT_EQ(fired[i], live[i].payload) << "pop " << i << " broke FIFO order";
  }

  const auto c = q.debug_counts();
  EXPECT_EQ(c.live_count, 0u);
  EXPECT_EQ(c.wheel_ahead, 0u);
  EXPECT_EQ(c.wheel_behind, 0u);
  EXPECT_EQ(c.heap_live, 0u);
  EXPECT_EQ(c.occupancy, 0u);
}

TEST(EventQueue, SteadyStateChurnAllocatesNothing) {
  // The flat ring's zero-allocation contract: once slot slab, node pool,
  // heap and bucket arrays hit their high-water mark, schedule/cancel/pop
  // cycles recycle storage instead of allocating. Global operator new is
  // interposed (alloc_interposer.hpp); the steady-state phase must add
  // exactly zero calls.
  EventQueue q;
  Rng rng(4242);
  Time now = 0.0;
  std::uint64_t fires = 0;
  std::vector<EventId> cancel_ring(64, 0);
  std::size_t cancel_at = 0;

  constexpr std::size_t kWindow = 4096;
  const auto cycle = [&](std::size_t pops) {
    for (std::size_t i = 0; i < pops; ++i) {
      while (q.size() < kWindow) {
        const EventId id =
            q.schedule(now + rng.uniform(0.0, 2.0), [&fires] { ++fires; });
        cancel_ring[cancel_at] = id;
        cancel_at = (cancel_at + 1) % cancel_ring.size();
      }
      if (i % 16 == 0) q.cancel(cancel_ring[cancel_at]);  // maybe-stale: both paths O(1)
      now = q.run_next();
    }
  };

  cycle(4 * kWindow);  // warm-up: reach every band's high-water mark
  const std::uint64_t before = alloc_interposer::new_calls.load();
  cycle(4 * kWindow);  // steady state
  const std::uint64_t after = alloc_interposer::new_calls.load();
  EXPECT_EQ(after - before, 0u)
      << "steady-state churn allocated " << (after - before) << " times";
  EXPECT_GT(fires, 0u);
}

TEST(EventQueue, ReentrantSchedulingFromActions) {
  // Actions scheduling follow-ups (including at their own timestamp) is the
  // periodic-task pattern; it must survive slab growth and band moves.
  EventQueue q;
  int chained = 0, extras = 0;
  std::function<void(Time)> chain = [&](Time t) {
    ++chained;
    if (t < 500.0) {
      q.schedule(t + 1.0, [&chain, t] { chain(t + 1.0); });
      if (chained % 10 == 0) q.schedule(t, [&extras] { ++extras; });  // same-time follow-up
    }
  };
  q.schedule(0.0, [&chain] { chain(0.0); });
  std::size_t executed = 0;
  while (!q.empty()) {
    q.run_next();
    ++executed;
  }
  EXPECT_EQ(chained, 501);
  EXPECT_EQ(extras, 50);
  EXPECT_EQ(executed, static_cast<std::size_t>(chained + extras));
}

// ---- Callback ---------------------------------------------------------------

TEST(Callback, InlineForSmallCapturesHeapForLarge) {
  int x = 0;
  Callback small([&x] { ++x; });
  EXPECT_TRUE(small.is_inline());
  std::array<double, 16> big_payload{};
  Callback big([&x, big_payload] { x += static_cast<int>(big_payload[0]) + 1; });
  EXPECT_FALSE(big.is_inline());
  small();
  big();
  EXPECT_EQ(x, 2);
}

TEST(Callback, MoveTransfersOwnership) {
  int calls = 0;
  Callback a([&calls] { ++calls; });
  Callback b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  Callback c;
  c = std::move(b);
  c();
  EXPECT_EQ(calls, 2);
}

TEST(Callback, DestroysHeldCallableExactlyOnce) {
  auto counter = std::make_shared<int>(0);
  {
    Callback cb([counter] { ++*counter; });
    EXPECT_EQ(counter.use_count(), 2);
    Callback moved(std::move(cb));
    EXPECT_EQ(counter.use_count(), 2);  // move, not copy
  }
  EXPECT_EQ(counter.use_count(), 1);  // destroyed with the callback
  EXPECT_EQ(*counter, 0);
}

// ---- Simulator --------------------------------------------------------------

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  double seen = -1.0;
  sim.at(5.0, [&] { seen = sim.now(); });
  sim.run_until(10.0);
  EXPECT_DOUBLE_EQ(seen, 5.0);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);  // clock parked at end time
}

TEST(Simulator, AfterSchedulesRelative) {
  Simulator sim;
  std::vector<double> times;
  sim.at(2.0, [&] {
    sim.after(3.0, [&] { times.push_back(sim.now()); });
  });
  sim.run_until(100.0);
  ASSERT_EQ(times.size(), 1u);
  EXPECT_DOUBLE_EQ(times[0], 5.0);
}

TEST(Simulator, PeriodicTaskFiresRepeatedly) {
  Simulator sim;
  int fires = 0;
  sim.every(0.0, 1.0, [&](Time) { ++fires; });
  sim.run_until(10.5);
  EXPECT_EQ(fires, 11);  // t = 0..10
}

TEST(Simulator, PeriodicTaskSeesCorrectTimes) {
  Simulator sim;
  std::vector<double> times;
  sim.every(0.5, 2.0, [&](Time t) { times.push_back(t); });
  sim.run_until(7.0);
  ASSERT_EQ(times.size(), 4u);
  EXPECT_DOUBLE_EQ(times[0], 0.5);
  EXPECT_DOUBLE_EQ(times[3], 6.5);
}

TEST(Simulator, RejectsPastScheduling) {
  Simulator sim;
  sim.at(5.0, [] {});
  sim.run_until(5.0);
  EXPECT_THROW(sim.at(1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.after(-1.0, [] {}), std::invalid_argument);
}

TEST(Simulator, PeriodicActionMayRegisterTasksWhileFiring) {
  // A root task registers one child chain on each of its first kChildren
  // firings, so the periodic registry grows while the root's own action is
  // running. Child k starts at k + 0.5 with period 1.
  constexpr int kChildren = 120;
  constexpr Time kEnd = 130.0;
  Simulator sim;
  std::vector<std::vector<Time>> child_times(kChildren);
  std::vector<Time> root_times;
  sim.every(0.0, 1.0, [&](Time t) {
    root_times.push_back(t);
    const int k = static_cast<int>(root_times.size()) - 1;
    if (k >= kChildren) return;
    sim.every(t + 0.5, 1.0, [&child_times, k](Time ct) { child_times[k].push_back(ct); });
  });
  sim.run_until(kEnd);

  ASSERT_EQ(root_times.size(), 131u);  // t = 0, 1, ..., 130
  for (std::size_t i = 0; i < root_times.size(); ++i) {
    EXPECT_EQ(root_times[i], static_cast<Time>(i));
  }
  for (int k = 0; k < kChildren; ++k) {
    // k + 0.5 + j <= 130 for j = 0 .. 129 - k; every value is exact.
    ASSERT_EQ(child_times[k].size(), static_cast<std::size_t>(130 - k)) << "chain " << k;
    for (std::size_t j = 0; j < child_times[k].size(); ++j) {
      EXPECT_EQ(child_times[k][j], k + 0.5 + static_cast<Time>(j)) << "chain " << k;
    }
  }
  // Root + every child each hold exactly one pending occurrence.
  EXPECT_EQ(sim.pending(), static_cast<std::size_t>(1 + kChildren));
}

// ---- Stats ------------------------------------------------------------------

TEST(Accumulator, BasicMoments) {
  Accumulator acc;
  for (const double v : {1.0, 2.0, 3.0, 4.0, 5.0}) acc.add(v);
  EXPECT_EQ(acc.count(), 5u);
  EXPECT_DOUBLE_EQ(acc.mean(), 3.0);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 5.0);
  EXPECT_NEAR(acc.sum(), 15.0, 1e-12);
}

TEST(Accumulator, EmptyIsZero) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
}

// ---- Trace ------------------------------------------------------------------

TEST(Trace, DisabledSinkRecordsNothing) {
  TraceSink t;
  t.emit(1.0, "x", "y");
  EXPECT_EQ(t.size(), 0u);
}

TEST(Trace, RecordsAndCounts) {
  TraceSink t;
  t.enable();
  t.emit(1.0, "node.a", "tx", "bytes=10");
  t.emit(2.0, "node.b", "tx");
  t.emit(3.0, "node.a", "rx");
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.count("tx"), 2u);
  EXPECT_EQ(t.count("tx", "node.a"), 1u);
  EXPECT_NE(t.to_string().find("bytes=10"), std::string::npos);
}

// ---- Determinism across full simulations -------------------------------------

TEST(Determinism, SameSeedSameTrace) {
  auto run = [](std::uint64_t seed) {
    Simulator sim(seed);
    std::vector<double> values;
    Rng r = sim.rng().fork(99);
    sim.every(0.0, 0.1, [&](Time) { values.push_back(r.uniform()); });
    sim.run_until(5.0);
    return values;
  };
  EXPECT_EQ(run(1234), run(1234));
  EXPECT_NE(run(1234), run(1235));
}

}  // namespace
}  // namespace iob::sim
