#pragma once
/// \file trace.hpp
/// In-memory span recorder for the traced run. Spans are recorded by the
/// benchmark around its calls into the program's public functions (nothing
/// inside the program is instrumented). Each recording thread appends to its
/// own buffer, so recording takes no lock after a thread's first span; the
/// spans are read and written out only after the parallel work has joined.
///
/// With no tracer (`Span(nullptr, ...)`) a span costs one branch.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds elapsed on the steady clock since `t0`.
inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::string name;
  double start_s = 0.0;  ///< seconds since the tracer was created
  double end_s = 0.0;
  std::size_t worker = 0;  ///< recording thread, in order of first span
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Seconds since construction on the steady clock.
  [[nodiscard]] double now() const;

  /// Fresh span id (never 0).
  std::uint64_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Append a finished span to the calling thread's buffer.
  void record(SpanRecord rec);

  /// The calling thread's worker number (order of its first span here).
  [[nodiscard]] std::size_t worker() const { return local().worker; }

  /// The calling thread's innermost open span on this tracer (0 if none).
  [[nodiscard]] std::uint64_t current() const;
  void set_current(std::uint64_t id);

  /// Every recorded span. Call only when no thread is still recording.
  [[nodiscard]] std::vector<SpanRecord> spans() const;

  /// Write the spans as Chrome trace-event JSON (complete "X" events, one
  /// track per worker; `args` carry the span id and parent id).
  void write_chrome_trace(const std::string& path) const;

 private:
  struct Buffer {
    std::size_t worker = 0;
    std::uint64_t current = 0;
    std::vector<SpanRecord> spans;
  };
  Buffer& local() const;

  std::chrono::steady_clock::time_point origin_;
  std::uint64_t generation_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;  ///< guards buffers_ (registration only)
  mutable std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span: opens at construction, records at destruction. A null tracer
/// makes it a no-op. `parent` overrides the thread's current span, for work
/// a pool runs on behalf of a span opened on another thread.
class Span {
 public:
  Span(Tracer* tracer, std::string name, std::uint64_t parent = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint64_t id() const { return rec_.id; }

  /// Seconds since the span opened (0 without a tracer).
  [[nodiscard]] double elapsed_s() const {
    return tracer_ ? tracer_->now() - rec_.start_s : 0.0;
  }

 private:
  Tracer* tracer_;
  std::uint64_t saved_current_ = 0;
  SpanRecord rec_;
};

}  // namespace perfbench
