#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "report.hpp"

namespace perfbench {

namespace {

std::atomic<std::uint64_t> g_generation{1};

/// The calling thread's buffer on the tracer it last recorded on.
struct LocalSlot {
  std::uint64_t generation = 0;
  void* buffer = nullptr;
};
thread_local LocalSlot t_slot;

}  // namespace

Tracer::Tracer()
    : origin_(std::chrono::steady_clock::now()),
      generation_(g_generation.fetch_add(1, std::memory_order_relaxed)) {}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin_).count();
}

Tracer::Buffer& Tracer::local() const {
  if (t_slot.generation != generation_) {
    const std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->worker = buffers_.size() - 1;
    t_slot = {generation_, buffers_.back().get()};
  }
  return *static_cast<Buffer*>(t_slot.buffer);
}

void Tracer::record(SpanRecord rec) {
  Buffer& b = local();
  rec.worker = b.worker;
  b.spans.push_back(std::move(rec));
}

std::uint64_t Tracer::current() const { return local().current; }

void Tracer::set_current(std::uint64_t id) { local().current = id; }

std::vector<SpanRecord> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SpanRecord> out;
  for (const auto& b : buffers_) out.insert(out.end(), b->spans.begin(), b->spans.end());
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) { return a.start_s < b.start_s; });
  return out;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot write trace file: " + path);
  f << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  for (const SpanRecord& s : spans()) {
    if (!first) f << ",\n";
    first = false;
    f << "{\"name\": " << json_string(s.name) << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.worker
      << ", \"ts\": " << json_number(s.start_s * 1e6)
      << ", \"dur\": " << json_number((s.end_s - s.start_s) * 1e6)
      << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent << "}}";
  }
  f << "\n]}\n";
  if (!f) throw std::runtime_error("failed writing trace file: " + path);
}

Span::Span(Tracer* tracer, std::string name, std::uint64_t parent) : tracer_(tracer) {
  if (!tracer_) return;
  rec_.id = tracer_->next_id();
  saved_current_ = tracer_->current();
  rec_.parent = parent != 0 ? parent : saved_current_;
  rec_.name = std::move(name);
  tracer_->set_current(rec_.id);
  rec_.start_s = tracer_->now();
}

Span::~Span() {
  if (!tracer_) return;
  rec_.end_s = tracer_->now();
  try {
    tracer_->set_current(saved_current_);
    tracer_->record(std::move(rec_));
  } catch (const std::exception& e) {
    // A destructor must not throw; a span that cannot be stored is reported.
    std::cerr << "perfbench: span dropped: " << e.what() << "\n";
  }
}

}  // namespace perfbench
