#pragma once
/// \file simulator.hpp
/// The discrete-event simulator: clock + event queue + convenience
/// scheduling. All network/energy actors (`net::Node`, `net::Hub`,
/// `energy::Harvester`, MAC schedulers) run on one `Simulator`.

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace iob::sim {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1);

  /// Current simulation time (seconds).
  [[nodiscard]] Time now() const { return now_; }

  /// Root RNG; actors should `fork()` per-entity streams from it.
  Rng& rng() { return rng_; }

  /// Schedule at an absolute time (>= now()).
  EventId at(Time when, EventQueue::Action action);

  /// Schedule after a relative delay (>= 0).
  EventId after(Time delay, EventQueue::Action action);

  /// Schedule `action` every `period` seconds starting at `start`, for the
  /// life of the simulator (use a flag in the action to stop a task early).
  void every(Time start, Time period, std::function<void(Time)> action);

  /// Run until the queue drains or `end_time` is reached, whichever first,
  /// then park the clock at `end_time`. Returns the number of events
  /// executed.
  std::size_t run_until(Time end_time);

  /// Number of pending events.
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

  /// Pre-size the event queue (see EventQueue::reserve).
  void reserve_events(std::size_t capacity) { queue_.reserve(capacity); }

 private:
  struct PeriodicTask {
    Time period = 0.0;
    Time next_fire = 0.0;
    std::function<void(Time)> action;
  };

  void fire_periodic(std::size_t key);

  EventQueue queue_;
  Rng rng_;
  Time now_ = 0.0;
  /// Periodic tasks indexed by key: keys are dense registration order, so
  /// a key never moves or is reused.
  std::vector<PeriodicTask> periodic_;
};

}  // namespace iob::sim
