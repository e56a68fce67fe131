// sim::detail::BlockPool — a per-thread, size-bucketed free list of blocks,
// for coroutine frames (sim::detail::CoroFramePool) and packet boxes
// (net::detail::PacketBoxPool). Bucket b holds blocks of (b + 1) × kGranule
// bytes, so after warm-up every block comes from, and goes back to, a free
// list, never ::operator new. A block too big for the last bucket falls
// through to plain new/delete and is counted, so a size that outgrows the
// pool shows up in stats() instead of quietly adding allocations.
//
// One pool per geometry and thread: sweep cells are share-nothing and a
// block never crosses OS threads, so the pool needs no locks.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace nistream::sim::detail {

template <std::size_t kGranule, std::size_t kBuckets>
class BlockPool {
 public:
  /// The bucket of blocks too big for any bucket.
  static constexpr std::uint16_t kOversize = 0xFFFF;
  static_assert(kBuckets < kOversize);

  struct Stats {
    std::uint64_t frames = 0;           // blocks asked for (pool or not)
    std::uint64_t pool_reuses = 0;      // served from a bucket free list
    std::uint64_t fresh_blocks = 0;     // had to touch ::operator new
    std::uint64_t oversize_blocks = 0;  // too big for any bucket
    std::uint64_t releases = 0;         // blocks handed back
    std::array<std::uint64_t, kBuckets> bucket_frames{};  // by bucket
  };

  BlockPool() = default;
  BlockPool(const BlockPool&) = delete;
  BlockPool& operator=(const BlockPool&) = delete;
  ~BlockPool() {
    for (auto& bucket : free_) {
      for (void* block : bucket) ::operator delete(block);
    }
  }

  /// The bucket a block of `bytes` comes from, or kOversize.
  [[nodiscard]] static constexpr std::uint16_t bucket_of(std::size_t bytes) {
    const std::size_t b = (bytes + kGranule - 1) / kGranule - 1;
    return b < kBuckets ? static_cast<std::uint16_t>(b) : kOversize;
  }

  void* allocate(std::size_t bytes) {
    ++stats_.frames;
    const std::uint16_t b = bucket_of(bytes);
    if (b == kOversize) {
      ++stats_.oversize_blocks;
      return ::operator new(bytes);
    }
    ++stats_.bucket_frames[b];
    auto& list = free_[b];
    if (!list.empty()) {
      ++stats_.pool_reuses;
      void* block = list.back();
      list.pop_back();
      return block;
    }
    ++stats_.fresh_blocks;
    return ::operator new((b + 1) * kGranule);
  }

  /// Hand back a block allocate() gave out from `bucket`. push_back may
  /// itself allocate while a free list's capacity is still growing; that
  /// stops once the list has held the high-water mark of blocks in use.
  void release(void* block, std::uint16_t bucket) noexcept {
    ++stats_.releases;
    if (bucket == kOversize) {
      ::operator delete(block);
      return;
    }
    free_[bucket].push_back(block);
  }

  [[nodiscard]] const Stats& stats() const { return stats_; }

  static BlockPool& instance() {
    static thread_local BlockPool pool;
    return pool;
  }

 private:
  std::vector<void*> free_[kBuckets];
  Stats stats_;
};

/// A standard allocator over Pool's per-thread instance, for
/// std::allocate_shared.
template <typename T, typename Pool>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U, Pool>&) noexcept {}  // NOLINT

  T* allocate(std::size_t n) {
    return static_cast<T*>(Pool::instance().allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    Pool::instance().release(p, Pool::bucket_of(n * sizeof(T)));
  }
  template <typename U>
  bool operator==(const PoolAllocator<U, Pool>&) const noexcept {
    return true;
  }
};

}  // namespace nistream::sim::detail
