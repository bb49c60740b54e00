#pragma once
/// \file sweep_runner.hpp
/// Deterministic parallel sweep engine. Fans independent design-space
/// points across a fixed TaskPool, whose threads claim points one at a
/// time, and merges results in index order, so the output vector is
/// byte-identical to a serial run at any thread count.
///
/// The determinism contract: each point i must be a pure function of
/// (inputs, i) — anything stochastic inside a point must draw from an RNG
/// derived with `point_seed(base_seed, i)` (Rng::fork under the hood), never
/// from shared state. Every sweep in the repo (Fig. 3 curve, partition
/// sweep, T4 network scaling) satisfies this by construction: a sweep point
/// builds its own Simulator.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <utility>
#include <vector>

#include "sim/task_pool.hpp"

namespace iob::core {

/// A pending batch from `SweepRunner::map_async`: a move-only handle whose
/// `get()` blocks until the batch's `map` completes and yields the
/// index-ordered result vector (identical bytes to a synchronous `map`).
template <typename R>
class BatchFuture {
 public:
  BatchFuture() = default;
  explicit BatchFuture(std::future<std::vector<R>> future) : future_(std::move(future)) {}

  /// True while a batch is attached and not yet collected.
  [[nodiscard]] bool valid() const { return future_.valid(); }

  /// Block until the batch finishes; returns out[i] = fn(i) in index order.
  [[nodiscard]] std::vector<R> get() { return future_.get(); }

 private:
  std::future<std::vector<R>> future_;
};

class SweepRunner {
 public:
  /// \param threads thread count for the underlying pool (0 = hardware
  ///        concurrency, 1 = serial execution on the caller).
  explicit SweepRunner(std::size_t threads = 0);

  /// Threads participating in each sweep.
  [[nodiscard]] std::size_t threads() const { return pool_->size(); }

  /// out[i] = fn(i) for i in [0, n), computed in parallel, merged in index
  /// order. R must be default-constructible and movable.
  template <typename R>
  std::vector<R> map(std::size_t n, const std::function<R(std::size_t)>& fn) const {
    std::vector<R> out(n);
    pool_->parallel_for(n, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) out[i] = fn(i);
    });
    return out;
  }

  /// Launch `map(n, fn)` on a helper thread and return immediately. The
  /// result (collected via BatchFuture::get) is byte-identical to the
  /// synchronous `map` — same pool, same per-index claiming, same
  /// index-order merge — so overlapping execution with downstream folding
  /// costs no determinism.
  ///
  /// At most ONE batch may be in flight per runner: the underlying TaskPool
  /// is not reentrant, so callers must `get()` the previous batch before
  /// issuing another `map`/`map_async`. The calling thread is free to do
  /// unrelated work (fold summaries, spill shards) while the batch runs —
  /// the overlap `Fleet::run_streaming` is built on.
  template <typename R>
  [[nodiscard]] BatchFuture<R> map_async(std::size_t n, std::function<R(std::size_t)> fn) const {
    return BatchFuture<R>(std::async(
        std::launch::async, [this, n, fn = std::move(fn)] { return map<R>(n, fn); }));
  }

  /// Convenience: map over an explicit vector of inputs.
  template <typename R, typename T>
  std::vector<R> map_over(const std::vector<T>& inputs,
                          const std::function<R(const T&, std::size_t)>& fn) const {
    return map<R>(inputs.size(),
                  [&](std::size_t i) { return fn(inputs[i], i); });
  }

  /// Deterministic per-point seed: hashes `base_seed` with the point index
  /// via Rng::fork, so sibling points get statistically independent streams
  /// and the mapping is identical at every thread count.
  [[nodiscard]] static std::uint64_t point_seed(std::uint64_t base_seed, std::size_t index);

  [[nodiscard]] sim::TaskPool& pool() const { return *pool_; }

 private:
  std::unique_ptr<sim::TaskPool> pool_;
};

/// The log-spaced grid every rate sweep uses: successive multiplication by
/// 10^(1/points_per_decade) from min_v until max_v (with the historical
/// 1e-7 relative slack on the upper bound). Kept as repeated multiplication
/// — not pow(step, i) — so the values are bit-identical to the original
/// serial loop in DesignSpaceExplorer::sweep.
std::vector<double> log_grid(double min_v, double max_v, std::size_t points_per_decade);

}  // namespace iob::core
