// Per-stream single-producer/single-consumer circular frame buffers, kept in
// one table per owner.
//
// Paper, Figure 4(b): "Using a circular queue for each stream eliminates the
// need for synchronization between the scheduler that selects the next packet
// for service, and the server that queues packets to be scheduled." Producers
// write through the tail pointer, the scheduler reads through the head
// pointer; neither pointer is shared for writing.
//
// Each ring is a real lock-free SPSC queue (acquire/release atomics) — the
// simulation itself is single-threaded, but the concurrency claim from the
// paper is a property of this data structure and is tested with real threads
// in tests/dwcs/ring_test.cpp.
//
// One table holds every ring of its owner (ring r is stream r of a
// scheduler). All rings share one capacity, residency and cost hook, stored
// once:
//  * Ring r is a 32-bit head and tail plus capacity + 1 descriptor slots (one
//    empty slot tells full from empty). A slot holds a descriptor's fields
//    back to back in 21 bytes (frame_id, enqueued_at, bytes, type; no
//    padding), and a ring's record is rounded up to 4 bytes so the next
//    ring's cursors stay aligned: 8 + 9 × 21 → 200 bytes at capacity 8.
//    Rings sit back to back in byte pages of a power-of-two ring count (as
//    many as fit in 64 KiB, at least one), so r splits into page and
//    position with a shift and a mask. A page is allocated when its first
//    ring is added, is never moved, and its slots are not initialized.
//  * Ring r's simulated region starts at base + r × stride. It is computed,
//    not stored.
//  * add() must not run concurrently with push/pop on any ring: the
//    scheduler is single-threaded, and concurrent users add every ring
//    before their threads start.
//
// Cost accounting: the simulated descriptor is kDescriptorWords 32-bit
// words, whatever the host slot's size. Its words sit at region + slot × 16
// and the head/tail word at region + 4096. Reads and writes report through
// the CostHook according to the residency (pinned memory words vs
// hardware-queue registers); a hook that is not accounted is never called.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <optional>
#include <type_traits>
#include <vector>

#include "dwcs/cost.hpp"
#include "dwcs/types.hpp"

namespace nistream::dwcs {

class RingTable {
 public:
  /// Descriptor footprint in 32-bit words, for cost accounting.
  static constexpr int kDescriptorWords = 4;

  /// Rings of `capacity` descriptors; ring r's simulated region starts at
  /// `base + r * stride`.
  RingTable(std::size_t capacity, DescriptorResidency residency, SimAddr base,
            SimAddr stride, CostHook& hook)
      : slots_{static_cast<std::uint32_t>(capacity + 1)},
        record_bytes_{record_size(slots_)},
        page_shift_{static_cast<unsigned>(std::bit_width(
                        std::max<std::size_t>(1, kPageBytes / record_bytes_)) -
                    1)},
        residency_{residency},
        charged_{hook.accounted()},
        base_{base},
        stride_{stride},
        hook_{&hook} {
    assert(capacity >= 1 && capacity < UINT32_MAX);
  }
  RingTable(const RingTable&) = delete;
  RingTable& operator=(const RingTable&) = delete;

  /// Append an empty ring; returns its index (0, 1, 2, ...).
  std::size_t add() {
    const std::size_t r = rings_;
    if ((r & page_mask()) == 0) {
      pages_.push_back(std::make_unique_for_overwrite<std::byte[]>(
          record_bytes_ << page_shift_));
    }
    ++rings_;
    ::new (static_cast<void*>(record(r))) Cursors{};
    return r;
  }
  /// Pre-size the page list for `n` rings (host-side capacity planning).
  void reserve(std::size_t n) {
    pages_.reserve((n + page_mask()) >> page_shift_);
  }

  [[nodiscard]] std::size_t rings() const { return rings_; }
  [[nodiscard]] std::size_t rings_per_page() const {
    return std::size_t{1} << page_shift_;
  }

  [[nodiscard]] bool empty(std::size_t r) const {
    const Cursors& c = cursors(r);
    return c.head.load(std::memory_order_acquire) ==
           c.tail.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::size_t size(std::size_t r) const {
    const Cursors& c = cursors(r);
    const auto h = c.head.load(std::memory_order_acquire);
    const auto t = c.tail.load(std::memory_order_acquire);
    return (std::size_t{t} + slots_ - h) % slots_;
  }

  /// Producer side: returns false when full (producer must back off).
  bool push(std::size_t r, const FrameDescriptor& d) {
    Cursors& c = cursors(r);
    const auto t = c.tail.load(std::memory_order_relaxed);
    const auto next = (t + 1) % slots_;
    if (next == c.head.load(std::memory_order_acquire)) return false;
    touch_slot(r, t);  // descriptor store
    store(r, t, d);
    touch_pointer(r);  // tail pointer update
    c.tail.store(next, std::memory_order_release);
    return true;
  }

  /// Consumer side: peek the head descriptor without removing it.
  [[nodiscard]] std::optional<FrameDescriptor> front(std::size_t r) const {
    const Cursors& c = cursors(r);
    const auto h = c.head.load(std::memory_order_relaxed);
    if (h == c.tail.load(std::memory_order_acquire)) return std::nullopt;
    touch_slot(r, h);
    return load(r, h);
  }

  /// Consumer side: drop the head descriptor. Precondition: not empty.
  void pop(std::size_t r) {
    Cursors& c = cursors(r);
    const auto h = c.head.load(std::memory_order_relaxed);
    assert(h != c.tail.load(std::memory_order_acquire));
    touch_pointer(r);
    c.head.store((h + 1) % slots_, std::memory_order_release);
  }

  /// Observability variants that charge nothing through the CostHook: for
  /// drop notifications and crash wipes, where the simulated CPU is not doing
  /// the access (or no longer exists). Never use these on the scheduling hot
  /// path — they would silently under-charge it.
  [[nodiscard]] std::optional<FrameDescriptor> front_unaccounted(
      std::size_t r) const {
    const Cursors& c = cursors(r);
    const auto h = c.head.load(std::memory_order_relaxed);
    if (h == c.tail.load(std::memory_order_acquire)) return std::nullopt;
    return load(r, h);
  }
  void pop_unaccounted(std::size_t r) {
    Cursors& c = cursors(r);
    const auto h = c.head.load(std::memory_order_relaxed);
    assert(h != c.tail.load(std::memory_order_acquire));
    c.head.store((h + 1) % slots_, std::memory_order_release);
  }

 private:
  /// Rings per page is the largest power of two whose rings fit here.
  static constexpr std::size_t kPageBytes = 64 * 1024;

  // A ring's first bytes; its slots follow.
  struct Cursors {
    std::atomic<std::uint32_t> head{0};
    std::atomic<std::uint32_t> tail{0};
  };
  static_assert(std::atomic<std::uint32_t>::is_always_lock_free);
  static_assert(std::is_trivially_copyable_v<FrameDescriptor>);
  static_assert(std::is_trivially_destructible_v<Cursors>);

  /// One slot: every descriptor field, unpadded. store() and load() name the
  /// same four fields through a structured binding, which stops compiling
  /// when a field is added to or removed from FrameDescriptor.
  static constexpr std::size_t kSlotBytes =
      sizeof(FrameDescriptor::frame_id) + sizeof(FrameDescriptor::enqueued_at) +
      sizeof(FrameDescriptor::bytes) + sizeof(FrameDescriptor::type);
  static_assert(kSlotBytes == 21, "frame_id 8, enqueued_at 8, bytes 4, type 1");

  /// One ring's cursors and slots, rounded up so that the next ring's
  /// cursors stay aligned.
  static constexpr std::size_t record_size(std::size_t slots) {
    constexpr std::size_t a = alignof(Cursors);
    return (sizeof(Cursors) + slots * kSlotBytes + a - 1) / a * a;
  }

  [[nodiscard]] std::size_t page_mask() const {
    return (std::size_t{1} << page_shift_) - 1;
  }
  [[nodiscard]] std::byte* record(std::size_t r) const {
    assert(r < rings_);
    return pages_[r >> page_shift_].get() + (r & page_mask()) * record_bytes_;
  }
  [[nodiscard]] Cursors& cursors(std::size_t r) const {
    return *std::launder(reinterpret_cast<Cursors*>(record(r)));
  }
  [[nodiscard]] std::byte* slot(std::size_t r, std::uint32_t i) const {
    return record(r) + sizeof(Cursors) + i * kSlotBytes;
  }
  /// Start of ring r's simulated region.
  [[nodiscard]] SimAddr region(std::size_t r) const {
    return base_ + static_cast<SimAddr>(r) * stride_;
  }
  /// Copies fields into consecutive slot bytes, or back out in the same order.
  template <typename... Field>
  static void pack(std::byte* at, const Field&... f) {
    ((std::memcpy(at, &f, sizeof f), at += sizeof f), ...);
  }
  template <typename... Field>
  static void unpack(const std::byte* at, Field&... f) {
    ((std::memcpy(&f, at, sizeof f), at += sizeof f), ...);
  }
  void store(std::size_t r, std::uint32_t i, const FrameDescriptor& d) const {
    const auto& [frame_id, bytes, type, enqueued_at] = d;
    pack(slot(r, i), frame_id, enqueued_at, bytes, type);
  }
  [[nodiscard]] FrameDescriptor load(std::size_t r, std::uint32_t i) const {
    FrameDescriptor d;
    auto& [frame_id, bytes, type, enqueued_at] = d;
    unpack(slot(r, i), frame_id, enqueued_at, bytes, type);
    return d;
  }

  // The cached `charged_` flag skips the whole touch loop (and its virtual
  // calls) for the null hook on wall-clock runs.
  void touch_slot(std::size_t r, std::uint32_t i) const {
    if (!charged_) return;
    if (residency_ == DescriptorResidency::kHardwareQueue) {
      for (int w = 0; w < kDescriptorWords; ++w) hook_->reg();
    } else {
      const SimAddr addr =
          region(r) + static_cast<SimAddr>(i) * (kDescriptorWords * 4);
      for (int w = 0; w < kDescriptorWords; ++w) {
        hook_->mem(addr + static_cast<SimAddr>(w) * 4);
      }
    }
  }
  void touch_pointer(std::size_t r) const {
    if (!charged_) return;
    if (residency_ == DescriptorResidency::kHardwareQueue) {
      hook_->reg();  // index register
    } else {
      hook_->mem(region(r) + 4096);  // head/tail word next to the slots
    }
  }

  std::vector<std::unique_ptr<std::byte[]>> pages_;
  std::size_t rings_ = 0;
  std::uint32_t slots_;       // capacity + 1
  std::size_t record_bytes_;  // one ring: cursors and slots
  unsigned page_shift_;       // log2(rings per page)
  DescriptorResidency residency_;
  bool charged_;
  SimAddr base_;
  SimAddr stride_;
  CostHook* hook_;
};

}  // namespace nistream::dwcs
