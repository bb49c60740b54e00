#pragma once
/// \file alloc_interposer.hpp
/// Global operator new/delete interposition for allocation-count
/// assertions (the zero-steady-state-allocation contracts of the event
/// queue and the nn inference engine).
///
/// Include from exactly ONE translation unit per binary: this header
/// DEFINES the replaceable global allocation functions (a second inclusion
/// fails to link, by design). Counting is process-wide; callers snapshot
/// `iob::alloc_interposer::new_calls` around the region under test.
///
/// Every plain, array and nothrow form is replaced, all on malloc/free: a
/// form left to the runtime (e.g. the nothrow `new` behind
/// `std::stable_sort`'s buffer) would escape the count and be freed here
/// by a mismatched deallocator.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace iob::alloc_interposer {
/// Total operator-new calls since process start (all threads), every form.
inline std::atomic<std::uint64_t> new_calls{0};

/// The one allocation path: counted malloc; nullptr on exhaustion.
inline void* counted_malloc(std::size_t size) noexcept {
  new_calls.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
}  // namespace iob::alloc_interposer

void* operator new(std::size_t size) {
  void* p = iob::alloc_interposer::counted_malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) {
  void* p = iob::alloc_interposer::counted_malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return iob::alloc_interposer::counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return iob::alloc_interposer::counted_malloc(size);
}

// The interposed operator new above allocates with malloc, so free() here
// IS the matched deallocator; the compiler cannot see through the global
// replacement and flags new/free pairs at inlined call sites.
#if defined(__GNUC__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
#if defined(__GNUC__)
#pragma GCC diagnostic pop
#endif
