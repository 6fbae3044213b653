#pragma once
// Counts every global operator new of the binary that includes this header.
// It replaces the global operator new and delete, so include it from
// exactly one translation unit per binary; a binary that does gets its own
// test or bench executable.

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace qcut::support {

inline std::atomic<std::size_t> g_allocations{0};

/// Global operator new calls made by `fn` (the count is deterministic for
/// single-threaded code).
template <typename Fn>
std::size_t allocations_of(Fn&& fn) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

}  // namespace qcut::support

// Not inlined, so GCC does not pair the malloc() and free() inside with the
// operator delete and operator new at a call site (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  qcut::support::g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
