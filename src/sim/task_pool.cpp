#include "sim/task_pool.hpp"

#include <algorithm>

#include "common/expect.hpp"

namespace iob::sim {

namespace {

/// Per-thread nesting depth across ALL pools: incremented around every body
/// execution, including the inline serial path, so `in_parallel_region()`
/// answers "is this thread inside some parallel_for body right now?".
thread_local int t_region_depth = 0;

struct RegionScope {
  RegionScope() { ++t_region_depth; }
  ~RegionScope() { --t_region_depth; }
  RegionScope(const RegionScope&) = delete;
  RegionScope& operator=(const RegionScope&) = delete;
};

}  // namespace

bool TaskPool::in_parallel_region() { return t_region_depth > 0; }

TaskPool::TaskPool(std::size_t thread_count) {
  if (thread_count == 0) {
    thread_count = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(thread_count - 1);
  for (std::size_t id = 1; id < thread_count; ++id) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void TaskPool::run_claims() {
  const std::size_t n = job_n_;
  const RangeBody& body = *job_body_;
  try {
    RegionScope region;
    for (std::size_t i = next_.fetch_add(1); i < n; i = next_.fetch_add(1)) body(i, i + 1);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!first_error_) first_error_ = std::current_exception();
  }
}

void TaskPool::worker_loop() {
  std::uint64_t seen_gen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [&] { return shutdown_ || job_gen_ != seen_gen; });
      if (shutdown_) return;
      seen_gen = job_gen_;
    }
    run_claims();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --outstanding_;
    }
    done_cv_.notify_one();
  }
}

void TaskPool::parallel_for(std::size_t n, const RangeBody& body) {
  IOB_EXPECTS(static_cast<bool>(body), "parallel_for body must be callable");
  if (n == 0) return;
  // Reentrancy guard: exchange so a rejected inner call never clears the
  // flag the outer (still-running) call owns — only the FlightGuard of the
  // call that won the exchange stores false, so the pool survives the throw.
  IOB_EXPECTS(!in_flight_.exchange(true, std::memory_order_acq_rel),
              "TaskPool::parallel_for is not reentrant: a job is already in flight on this pool "
              "(nested component pools must degrade to serial — see in_parallel_region())");
  struct FlightGuard {
    std::atomic<bool>& flag;
    ~FlightGuard() { flag.store(false, std::memory_order_release); }
  } flight{in_flight_};
  if (workers_.empty() || n == 1) {
    RegionScope region;
    body(0, n);  // serial pool (or degenerate range): run inline, no handoff
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_n_ = n;
    job_body_ = &body;
    next_ = 0;
    outstanding_ = workers_.size();
    first_error_ = nullptr;
    ++job_gen_;
  }
  start_cv_.notify_all();
  run_claims();  // the caller claims alongside the workers
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return outstanding_ == 0; });
    job_body_ = nullptr;
    error = first_error_;
    first_error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace iob::sim
