#pragma once
/// \file task_pool.hpp
/// Fixed-size thread pool with work-claiming scheduling, built for the
/// sweep engine: every `parallel_for` over [0, n) keeps one atomic cursor,
/// and each participating thread (caller included) claims the next index
/// from it and runs `body(i, i + 1)` until the range is drained. Uneven
/// per-index costs therefore balance themselves: a thread that drew a cheap
/// index simply claims again. Which thread runs an index varies run to run,
/// so determinism of the *results* rests on per-index purity plus
/// index-order merge: each body must be a pure function of its index that
/// writes only slot i (the sweep runner forks a per-index RNG for that),
/// and callers combine slots in index order.
///
/// Workers are started once and parked on a condition variable between
/// jobs; a `parallel_for` costs two lock handoffs per worker plus one
/// atomic increment per index, which is noise against sweep points that
/// each run a full simulation.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace iob::sim {

class TaskPool {
 public:
  /// Range body: invoked as body(begin, end) with [begin, end) ⊆ [0, n).
  using RangeBody = std::function<void(std::size_t, std::size_t)>;

  /// \param thread_count total threads used per job, caller included.
  ///        0 means std::thread::hardware_concurrency(); 1 runs everything
  ///        inline on the caller with no worker threads at all.
  explicit TaskPool(std::size_t thread_count = 0);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Total threads participating in each parallel_for (workers + caller).
  [[nodiscard]] std::size_t size() const { return workers_.size() + 1; }

  /// Run `body` over [0, n): size() threads claim indices one at a time
  /// from a shared cursor and call body(i, i + 1). Blocks until the range
  /// is drained. The first exception thrown by any body is rethrown on the
  /// caller; the throwing thread stops claiming, while the other threads
  /// keep claiming until the range drains. A one-thread pool (or n == 1)
  /// calls body(0, n) once, inline.
  ///
  /// Not reentrant: calling parallel_for on a pool that already has a job
  /// in flight (from inside a body, or from a second thread) throws
  /// std::invalid_argument instead of deadlocking; the outer job is
  /// unaffected and the pool stays usable. Nesting rule for *distinct*
  /// pools: fleet parallelism wins — a component that owns its own pool
  /// (e.g. the hub engine) must check `in_parallel_region()` and degrade to
  /// its serial path when it is already running inside another pool's body
  /// (e.g. a `SweepRunner` sweep), so thread counts never multiply.
  void parallel_for(std::size_t n, const RangeBody& body);

  /// True while a parallel_for on *this pool* has not yet returned. Mainly
  /// for tests; the reentrancy check itself is internal.
  [[nodiscard]] bool in_flight() const { return in_flight_.load(std::memory_order_acquire); }

  /// True when the calling thread is currently executing inside the body of
  /// ANY TaskPool::parallel_for (including the inline serial path). This is
  /// the "am I nested?" probe behind the fleet-parallelism-wins rule.
  [[nodiscard]] static bool in_parallel_region();

 private:
  /// Claim and run indices of the current job until the cursor passes n.
  void run_claims();
  void worker_loop();

  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t job_gen_ = 0;       ///< bumped per parallel_for; wakes workers
  std::size_t job_n_ = 0;
  std::atomic<std::size_t> next_{0};  ///< next unclaimed index of the current job
  const RangeBody* job_body_ = nullptr;
  std::size_t outstanding_ = 0;     ///< workers still running the current job
  std::exception_ptr first_error_;
  bool shutdown_ = false;
  std::atomic<bool> in_flight_{false};  ///< reentrancy / concurrent-use guard
};

}  // namespace iob::sim
