// live_heap_shim — what a process's live heap holds at its peak, by block
// size. Built as build/bench/liblive_heap_shim.so and linked into nothing;
// load it into any binary of this repository with LD_PRELOAD, as in (one
// command line)
//
//   LD_PRELOAD=build/bench/liblive_heap_shim.so .bench_build/nibench/nibench
//       --workload setup_storm --seed 1 --seconds 1 --trace 0
//
// It replaces the global operator new and delete. Every block carries a
// header with its requested size, so a delete knows what it frees. Live
// blocks up to 4 KiB are counted by exact size; bigger ones are counted in a
// table of their own, by size. Whenever the live bytes pass the last snapshot
// by 1/256 of it (at least 64 KiB), both tables are copied, so the snapshot
// printed at exit is within ~0.4% of the true peak. The report goes to stderr:
// each size's live blocks, their requested bytes and the bytes glibc's malloc
// would take for them without the shim (16-byte granules with an 8-byte
// header, at least 32 bytes; page-rounded mmaps from 128 KiB), largest first.
// The header adds 16 bytes to every block, so the process's own RSS reads
// higher under the shim than without it; the report does not count it.
//
// Only operator new is seen: malloc called directly (C libraries, stdio) is
// not. The counters take a spinlock, so threaded binaries work, slowly.
#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include <unistd.h>

namespace {

constexpr std::size_t kSmallMax = 4096;   // exact-size counters up to here
constexpr std::size_t kLargeSlots = 1024;  // distinct sizes above it
constexpr std::size_t kHeader = 16;        // keeps max_align_t alignment
constexpr std::int64_t kMinStep = 64 * 1024;

struct Large {
  std::size_t size;
  std::int64_t blocks;
};

struct Counts {
  std::int64_t live = 0;  // requested bytes in live blocks
  std::int64_t small[kSmallMax + 1] = {};
  Large large[kLargeSlots] = {};
  std::int64_t large_overflow = 0;  // bytes of sizes the table had no room for
};

Counts g_now;
Counts g_snap;
std::int64_t g_peak = 0;
std::atomic_flag g_lock = ATOMIC_FLAG_INIT;

struct Guard {
  Guard() {
    while (g_lock.test_and_set(std::memory_order_acquire)) {
    }
  }
  ~Guard() { g_lock.clear(std::memory_order_release); }
};

void count(std::size_t n, std::int64_t sign) {
  const Guard guard;
  g_now.live += sign * static_cast<std::int64_t>(n);
  if (n <= kSmallMax) {
    g_now.small[n] += sign;
  } else {
    std::size_t i = (n * 0x9E3779B97F4A7C15ull >> 40) % kLargeSlots;
    for (std::size_t probe = 0; probe < kLargeSlots; ++probe) {
      Large& slot = g_now.large[(i + probe) % kLargeSlots];
      if (slot.size == n || slot.size == 0) {
        slot.size = n;
        slot.blocks += sign;
        break;
      }
      if (probe + 1 == kLargeSlots) {
        g_now.large_overflow += sign * static_cast<std::int64_t>(n);
      }
    }
  }
  g_peak = std::max(g_peak, g_now.live);
  if (g_now.live > g_snap.live + std::max(kMinStep, g_snap.live / 256)) {
    g_snap = g_now;
  }
}

void* allocate(std::size_t n, std::size_t align) {
  const std::size_t header = std::max(kHeader, align);
  void* raw = align <= kHeader
                  ? std::malloc(n + header)
                  : std::aligned_alloc(align, (n + header + align - 1) /
                                                  align * align);
  if (raw == nullptr) throw std::bad_alloc{};
  auto* block = static_cast<std::byte*>(raw) + header;
  reinterpret_cast<std::size_t*>(block)[-1] = n;
  count(n, +1);
  return block;
}

void release(void* p, std::size_t align) noexcept {
  if (p == nullptr) return;
  const std::size_t header = std::max(kHeader, align);
  count(static_cast<std::size_t*>(p)[-1], -1);
  std::free(static_cast<std::byte*>(p) - header);
}

/// What glibc's malloc takes for a request of n bytes without the shim.
std::int64_t chunk_bytes(std::size_t n) {
  const std::size_t chunk = n >= 128 * 1024
                                ? (n + 16 + 4095) & ~std::size_t{4095}
                                : std::max<std::size_t>(32, (n + 8 + 15) & ~std::size_t{15});
  return static_cast<std::int64_t>(chunk);
}

void print(const char* fmt, double a = 0, double b = 0, double c = 0,
           double d = 0) {
  char line[160];
  const int k = std::snprintf(line, sizeof line, fmt, a, b, c, d);
  if (k > 0) (void)!write(STDERR_FILENO, line, static_cast<std::size_t>(k));
}

struct Row {
  std::size_t size;
  std::int64_t blocks;
  std::int64_t chunk;
};

Row g_rows[kSmallMax + 1 + kLargeSlots];

void print_rows(std::size_t first, std::size_t last, std::size_t limit) {
  std::sort(g_rows + first, g_rows + last,
            [](const Row& a, const Row& b) { return a.chunk > b.chunk; });
  constexpr double kMiB = 1024.0 * 1024.0;
  for (std::size_t i = first; i < last && i < first + limit; ++i) {
    const Row& r = g_rows[i];
    print("  %10.0f B %10.0f blocks %9.2f MiB requested %9.2f MiB chunks\n",
          static_cast<double>(r.size), static_cast<double>(r.blocks),
          static_cast<double>(r.size) * static_cast<double>(r.blocks) / kMiB,
          static_cast<double>(r.chunk) / kMiB);
  }
}

__attribute__((destructor)) void report() {
  const Guard guard;
  const Counts& s = g_snap;
  std::size_t rows = 0;
  std::int64_t chunks = 0;
  for (std::size_t n = 0; n <= kSmallMax; ++n) {
    if (s.small[n] <= 0) continue;
    g_rows[rows++] = {n, s.small[n], s.small[n] * chunk_bytes(n)};
    chunks += g_rows[rows - 1].chunk;
  }
  const std::size_t small_rows = rows;
  for (const Large& l : s.large) {
    if (l.size == 0 || l.blocks <= 0) continue;
    g_rows[rows++] = {l.size, l.blocks, l.blocks * chunk_bytes(l.size)};
    chunks += g_rows[rows - 1].chunk;
  }
  constexpr double kMiB = 1024.0 * 1024.0;
  print("live_heap_shim: peak %.2f MiB requested in live operator new blocks;"
        " snapshot at %.2f MiB (%.2f MiB of malloc chunks); %.2f MiB live at"
        " exit\n",
        static_cast<double>(g_peak) / kMiB, static_cast<double>(s.live) / kMiB,
        static_cast<double>(chunks) / kMiB,
        static_cast<double>(g_now.live) / kMiB);
  print("blocks up to 4 KiB at the snapshot, top 40 by chunk bytes:\n");
  print_rows(0, small_rows, 40);
  print("blocks over 4 KiB at the snapshot, by chunk bytes:\n");
  print_rows(small_rows, rows, kLargeSlots);
  if (s.large_overflow != 0) {
    print("  %.2f MiB in sizes past the large table\n",
          static_cast<double>(s.large_overflow) / kMiB);
  }
}

}  // namespace

void* operator new(std::size_t n) { return allocate(n, 0); }
void* operator new[](std::size_t n) { return allocate(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return allocate(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return allocate(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { release(p, 0); }
void operator delete[](void* p) noexcept { release(p, 0); }
void operator delete(void* p, std::size_t) noexcept { release(p, 0); }
void operator delete[](void* p, std::size_t) noexcept { release(p, 0); }
void operator delete(void* p, std::align_val_t a) noexcept {
  release(p, static_cast<std::size_t>(a));
}
void operator delete[](void* p, std::align_val_t a) noexcept {
  release(p, static_cast<std::size_t>(a));
}
void operator delete(void* p, std::size_t, std::align_val_t a) noexcept {
  release(p, static_cast<std::size_t>(a));
}
void operator delete[](void* p, std::size_t, std::align_val_t a) noexcept {
  release(p, static_cast<std::size_t>(a));
}
