// Global operator new replaced by a counting shim, for allocation audits.
//
// Include from exactly one translation unit of a test binary (every test
// binary here is one source file). test::heap_allocs() reads the number of
// global heap allocations so far; an audit reads it before and after the code
// under test. test::heap_live_bytes() reads the bytes held by live `new`
// blocks, as malloc_usable_size reports them, so an audit can tell state that
// accumulates from allocations that come and go. Set NISTREAM_TRACE_ALLOCS in
// the environment and call test::trace_next_allocs(n) to dump the backtraces
// of the next n allocations.
//
// Under ASan/TSan the sanitizer owns the allocator, so the shim is compiled
// out: NISTREAM_COUNTING_NEW is 0 and heap_allocs() and heap_live_bytes()
// always read 0. Audits then run the same code without asserting counts.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define NISTREAM_COUNTING_NEW 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define NISTREAM_COUNTING_NEW 0
#else
#define NISTREAM_COUNTING_NEW 1
#endif
#else
#define NISTREAM_COUNTING_NEW 1
#endif

#if NISTREAM_COUNTING_NEW

#include <execinfo.h>
#include <malloc.h>
#include <unistd.h>

namespace nistream::test::detail {
inline std::atomic<std::uint64_t> g_heap_allocs{0};
inline std::atomic<std::int64_t> g_heap_live{0};
inline std::atomic<int> g_trace_allocs{0};

inline void* counted_alloc(std::size_t n) {
  ++g_heap_allocs;
  if (g_trace_allocs.load(std::memory_order_relaxed) > 0 &&
      g_trace_allocs.fetch_sub(1) > 0) {
    void* frames[16];
    const int depth = backtrace(frames, 16);
    backtrace_symbols_fd(frames, depth, STDERR_FILENO);
    (void)!write(STDERR_FILENO, "----\n", 5);
  }
  if (void* p = std::malloc(n ? n : 1)) {
    g_heap_live += static_cast<std::int64_t>(malloc_usable_size(p));
    return p;
  }
  throw std::bad_alloc{};
}

inline void counted_free(void* p) {
  if (p == nullptr) return;
  g_heap_live -= static_cast<std::int64_t>(malloc_usable_size(p));
  std::free(p);
}
}  // namespace nistream::test::detail

void* operator new(std::size_t n) {
  return nistream::test::detail::counted_alloc(n);
}
void* operator new[](std::size_t n) {
  return nistream::test::detail::counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t) {
  return nistream::test::detail::counted_alloc(n);
}
void* operator new[](std::size_t n, std::align_val_t) {
  return nistream::test::detail::counted_alloc(n);
}
void operator delete(void* p) noexcept {
  nistream::test::detail::counted_free(p);
}
void operator delete[](void* p) noexcept {
  nistream::test::detail::counted_free(p);
}
void operator delete(void* p, std::size_t) noexcept {
  nistream::test::detail::counted_free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  nistream::test::detail::counted_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  nistream::test::detail::counted_free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  nistream::test::detail::counted_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  nistream::test::detail::counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  nistream::test::detail::counted_free(p);
}

#endif  // NISTREAM_COUNTING_NEW

namespace nistream::test {

/// Global heap allocations so far (0 when the shim is compiled out).
inline std::uint64_t heap_allocs() {
#if NISTREAM_COUNTING_NEW
  return detail::g_heap_allocs.load();
#else
  return 0;
#endif
}

/// Bytes held by live global heap blocks (0 when the shim is compiled out).
/// Only differences between two readings mean anything: blocks are counted
/// at their usable size, which malloc may round up from the request.
inline std::int64_t heap_live_bytes() {
#if NISTREAM_COUNTING_NEW
  return detail::g_heap_live.load();
#else
  return 0;
#endif
}

/// Debug aid: when NISTREAM_TRACE_ALLOCS is set, print the backtraces of the
/// next `n` allocations to stderr.
inline void trace_next_allocs(int n) {
#if NISTREAM_COUNTING_NEW
  if (std::getenv("NISTREAM_TRACE_ALLOCS") != nullptr) {
    detail::g_trace_allocs.store(n);
  }
#else
  (void)n;
#endif
}

}  // namespace nistream::test
