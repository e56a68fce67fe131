// sim::detail::BlockPool — a per-thread, size-bucketed free list of blocks,
// for coroutine frames (sim::detail::CoroFramePool) and packet boxes
// (net::detail::PacketBoxPool). Bucket b holds blocks of (b + 1) × kGranule
// bytes. A block comes from its bucket's free list if it can; otherwise it is
// carved from the pool's current 64 KiB slab, and only a full slab calls
// ::operator new. A block handed back is threaded onto its bucket's list
// through its own first word, so the lists cost nothing beyond the blocks,
// and a block costs its size and no malloc header (a 128-byte frame takes
// 128 bytes, not a 144-byte chunk; a storm holds ~90k of them). Blocks stay
// with the pool until it dies; the slabs go then.
// A block too big for the last bucket falls through to plain new/delete and
// is counted, so a size that outgrows the pool shows up in stats() instead of
// quietly adding allocations.
//
// Under AddressSanitizer a block is poisoned while it is on a free list and
// until it is carved, so a use after release() is still reported. A slab
// has no redzones between its blocks, so an overrun into the next block is
// not.
//
// One pool per geometry and thread: sweep cells are share-nothing and a
// block never crosses OS threads, so the pool needs no locks.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define NISTREAM_POOL_POISON(p, n) ASAN_POISON_MEMORY_REGION(p, n)
#define NISTREAM_POOL_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION(p, n)
#else
#define NISTREAM_POOL_POISON(p, n) ((void)(p), (void)(n))
#define NISTREAM_POOL_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace nistream::sim::detail {

template <std::size_t kGranule, std::size_t kBuckets>
class BlockPool {
 public:
  /// The bucket of blocks too big for any bucket.
  static constexpr std::uint16_t kOversize = 0xFFFF;
  static_assert(kBuckets < kOversize);
  /// Bytes per slab; every bucket's block fits one many times over.
  static constexpr std::size_t kSlabBytes = std::size_t{64} * 1024;
  static_assert(kGranule % alignof(std::max_align_t) == 0 &&
                kGranule >= sizeof(void*));
  static_assert(kBuckets * kGranule <= kSlabBytes / 8);

  struct Stats {
    std::uint64_t frames = 0;           // blocks asked for (pool or not)
    std::uint64_t pool_reuses = 0;      // served from a bucket free list
    std::uint64_t fresh_blocks = 0;     // carved from a slab
    std::uint64_t oversize_blocks = 0;  // too big for any bucket
    std::uint64_t releases = 0;         // blocks handed back
    std::uint64_t slabs = 0;            // slabs allocated
    std::array<std::uint64_t, kBuckets> bucket_frames{};  // by bucket
  };

  BlockPool() = default;
  BlockPool(const BlockPool&) = delete;
  BlockPool& operator=(const BlockPool&) = delete;
  ~BlockPool() {
    for (std::byte* slab : slabs_) {
      NISTREAM_POOL_UNPOISON(slab, kSlabBytes);
      ::operator delete(slab);
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
    const std::size_t size = (b + 1) * kGranule;
    if (FreeBlock* block = free_[b]) {
      ++stats_.pool_reuses;
      NISTREAM_POOL_UNPOISON(block, size);
      free_[b] = block->next;
      return block;
    }
    ++stats_.fresh_blocks;
    if (static_cast<std::size_t>(slab_end_ - cursor_) < size) {
      ++stats_.slabs;
      cursor_ = static_cast<std::byte*>(::operator new(kSlabBytes));
      slab_end_ = cursor_ + kSlabBytes;
      slabs_.push_back(cursor_);
      NISTREAM_POOL_POISON(cursor_, kSlabBytes);
    }
    void* block = cursor_;
    cursor_ += size;
    NISTREAM_POOL_UNPOISON(block, size);
    return block;
  }

  /// Hand back a block allocate() gave out from `bucket`. Never allocates.
  void release(void* block, std::uint16_t bucket) noexcept {
    ++stats_.releases;
    if (bucket == kOversize) {
      ::operator delete(block);
      return;
    }
    free_[bucket] = ::new (block) FreeBlock{free_[bucket]};
    NISTREAM_POOL_POISON(block, (bucket + 1) * kGranule);
  }

  [[nodiscard]] const Stats& stats() const { return stats_; }

  static BlockPool& instance() {
    static thread_local BlockPool pool;
    return pool;
  }

 private:
  /// A released block, linked to the next free block of its bucket.
  struct FreeBlock {
    FreeBlock* next;
  };

  FreeBlock* free_[kBuckets] = {};
  std::byte* cursor_ = nullptr;    // next uncarved byte of the current slab
  std::byte* slab_end_ = nullptr;  // one past the current slab
  std::vector<std::byte*> slabs_;  // every slab, freed with the pool
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

#undef NISTREAM_POOL_POISON
#undef NISTREAM_POOL_UNPOISON
