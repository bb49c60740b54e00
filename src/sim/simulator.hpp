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

  /// Schedule `action` every `period` seconds starting at `start` until the
  /// simulation stops. Returns the id of the *first* occurrence; passing it
  /// to `cancel` before that occurrence fires retires the whole periodic
  /// task. Once an occurrence has fired the id is stale (use a flag in the
  /// action to stop a running task early). All periodic tasks are torn down
  /// by `request_stop()` — no self-reschedule lingers after a stop.
  EventId every(Time start, Time period, std::function<void(Time)> action);

  /// Cancel a pending event by handle. A handle naming a periodic task's
  /// pending occurrence retires that task entirely.
  bool cancel(EventId id);

  /// Run until the queue drains or `end_time` is reached, whichever first.
  /// The clock is left at min(end_time, time of last event). Returns the
  /// number of events executed.
  std::size_t run_until(Time end_time);

  /// Run until the queue drains completely.
  std::size_t run_all();

  /// Stop a `run_*` loop from inside an event (e.g. battery died). Also
  /// cancels every periodic task's pending occurrence, so `pending()` drops
  /// to exactly the non-periodic events still in the queue.
  void request_stop();

  [[nodiscard]] bool stop_requested() const { return stop_requested_; }

  /// Number of pending events.
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

  /// Pre-size the event queue (see EventQueue::reserve).
  void reserve_events(std::size_t capacity) { queue_.reserve(capacity); }

 private:
  struct PeriodicTask {
    Time period = 0.0;
    Time next_fire = 0.0;
    std::function<void(Time)> action;
    EventId pending = 0;  ///< currently scheduled occurrence
    bool live = true;     ///< false once cancelled or torn down by a stop
  };

  void fire_periodic(std::size_t key);
  /// Mark a task dead in place and release its closure.
  static void retire(PeriodicTask& task);

  EventQueue queue_;
  Rng rng_;
  Time now_ = 0.0;
  bool stop_requested_ = false;
  /// Periodic tasks indexed by key: keys are dense registration order, and
  /// retired tasks stay in place (dead), so a key never moves or is reused.
  std::vector<PeriodicTask> periodic_;
};

}  // namespace iob::sim
