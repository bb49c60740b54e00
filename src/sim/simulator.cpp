#include "sim/simulator.hpp"

#include <utility>

#include "common/expect.hpp"

namespace iob::sim {

Simulator::Simulator(std::uint64_t seed) : rng_(seed) {}

EventId Simulator::at(Time when, EventQueue::Action action) {
  IOB_EXPECTS(when >= now_, "cannot schedule into the past");
  return queue_.schedule(when, std::move(action));
}

EventId Simulator::after(Time delay, EventQueue::Action action) {
  IOB_EXPECTS(delay >= 0.0, "delay must be non-negative");
  return queue_.schedule(now_ + delay, std::move(action));
}

void Simulator::every(Time start, Time period, std::function<void(Time)> action) {
  IOB_EXPECTS(period > 0.0, "periodic task needs a positive period");
  IOB_EXPECTS(start >= now_, "cannot schedule into the past");
  const std::size_t key = periodic_.size();
  PeriodicTask& task = periodic_.emplace_back();
  task.period = period;
  task.next_fire = start;
  task.action = std::move(action);
  // The per-occurrence event is a 16-byte {this, key} capture — inline in
  // Callback, so the reschedule cycle allocates nothing.
  queue_.schedule(start, [this, key] { fire_periodic(key); });
}

void Simulator::fire_periodic(std::size_t key) {
  const Time t = periodic_[key].next_fire;
  // Move the action out before invoking: the action may call every(), which
  // may grow periodic_ and move every task, and running a closure whose
  // storage was just moved would be use-after-free.
  std::function<void(Time)> action = std::move(periodic_[key].action);
  action(t);
  // Re-index: periodic_ may have been reallocated by the action.
  PeriodicTask& task = periodic_[key];
  task.action = std::move(action);
  task.next_fire = t + task.period;
  queue_.schedule(task.next_fire, [this, key] { fire_periodic(key); });
}

std::size_t Simulator::run_until(Time end_time) {
  IOB_EXPECTS(end_time >= now_, "end_time must not precede now()");
  std::size_t executed = 0;
  while (!queue_.empty()) {
    const Time next = queue_.next_time();
    if (next > end_time) break;
    // Advance the clock *before* executing so actions observe now() == their
    // own timestamp (and relative scheduling via after() is anchored right).
    now_ = next;
    queue_.run_next();
    ++executed;
  }
  if (now_ < end_time) now_ = end_time;
  return executed;
}

}  // namespace iob::sim
