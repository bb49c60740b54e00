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

EventId Simulator::every(Time start, Time period, std::function<void(Time)> action) {
  IOB_EXPECTS(period > 0.0, "periodic task needs a positive period");
  IOB_EXPECTS(start >= now_, "cannot schedule into the past");
  const std::size_t key = periodic_.size();
  PeriodicTask& task = periodic_.emplace_back();
  task.period = period;
  task.next_fire = start;
  task.action = std::move(action);
  // The per-occurrence event is a 16-byte {this, key} capture — inline in
  // Callback, so the reschedule cycle allocates nothing.
  task.pending = queue_.schedule(start, [this, key] { fire_periodic(key); });
  return task.pending;
}

bool Simulator::cancel(EventId id) {
  const bool cancelled = queue_.cancel(id);
  if (cancelled) {
    // If the handle was a periodic task's pending occurrence, retire the
    // whole chain — otherwise its closure (and captured state) would linger
    // until request_stop().
    for (PeriodicTask& task : periodic_) {
      if (task.live && task.pending == id) {
        retire(task);
        break;
      }
    }
  }
  return cancelled;
}

void Simulator::retire(PeriodicTask& task) {
  task.live = false;
  task.action = nullptr;
}

void Simulator::fire_periodic(std::size_t key) {
  if (!periodic_[key].live) return;  // torn down between schedule and fire
  const Time t = periodic_[key].next_fire;
  // Move the action out before invoking: the action may call every() (which
  // may grow periodic_ and move every task) or request_stop() (which
  // releases every closure), and running a closure whose storage was just
  // moved or destroyed would be use-after-free.
  std::function<void(Time)> action = std::move(periodic_[key].action);
  action(t);
  // Re-index: periodic_ may have been reallocated by the action.
  PeriodicTask& task = periodic_[key];
  if (!task.live) return;  // stop tore the task down mid-fire
  if (stop_requested_) {
    retire(task);
    return;
  }
  task.action = std::move(action);
  task.next_fire = t + task.period;
  task.pending = queue_.schedule(task.next_fire, [this, key] { fire_periodic(key); });
}

void Simulator::request_stop() {
  stop_requested_ = true;
  // Tear down every periodic chain: without this, each periodic task that
  // fired before the stop leaves its next occurrence dangling in the queue
  // (pending() never drains, and a later inspection of the queue sees ghost
  // events that will never run).
  for (PeriodicTask& task : periodic_) {
    if (!task.live) continue;
    queue_.cancel(task.pending);
    retire(task);
  }
}

std::size_t Simulator::run_until(Time end_time) {
  IOB_EXPECTS(end_time >= now_, "end_time must not precede now()");
  std::size_t executed = 0;
  while (!queue_.empty() && !stop_requested_) {
    const Time next = queue_.next_time();
    if (next > end_time) break;
    // Advance the clock *before* executing so actions observe now() == their
    // own timestamp (and relative scheduling via after() is anchored right).
    now_ = next;
    queue_.run_next();
    ++executed;
  }
  if (!stop_requested_ && now_ < end_time) now_ = end_time;
  return executed;
}

std::size_t Simulator::run_all() {
  std::size_t executed = 0;
  while (!queue_.empty() && !stop_requested_) {
    now_ = queue_.next_time();
    queue_.run_next();
    ++executed;
  }
  return executed;
}

}  // namespace iob::sim
