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
//  * Ring r's record is 40 bytes at any capacity: a spill pointer (8), a
//    32-bit head and tail, and one inline descriptor slot. A slot holds a
//    descriptor's fields back to back in 21 bytes (frame_id, enqueued_at,
//    bytes, type; no padding): 8 + 4 + 4 + 21 → 40 with the pointer's
//    alignment. Records sit back to back in pages of 1,024 (40,960 bytes),
//    so r splits into page and position with a shift and a mask. A page is
//    allocated when its first ring is added, is never moved, and its inline
//    slots are not initialized.
//  * The head and tail are logical positions mod capacity + 1 (one empty
//    position tells full from empty), whatever holds the bytes. A ring
//    without a block holds at most one frame, in its inline slot. A paced
//    stream holds one frame between dispatches, so most rings never need
//    more: PIFO likewise ranks only a flow's head, and in paced media the
//    FIFO behind it is almost always empty.
//  * Spill: when push() finds the ring already holding a frame, the ring
//    takes a block of capacity + 1 slots from operator new, and from then on
//    keeps position i's frame in the block's slot i. A spilled ring costs its
//    40 bytes plus the block (189 bytes at capacity 8, a 208-byte malloc
//    chunk), where a record holding all nine slots would take 200. A ring
//    spills at most once: its block stays until the table dies, because to
//    free it the producer would have to know that the consumer no longer
//    reads it, which is the synchronization Figure 4(b) does without.
//  * The spill keeps the SPSC contract lock-free. Only the producer writes
//    the spill pointer, once, while the ring holds a frame: it copies the
//    inline frame into the block at the head's position, publishes the block
//    with a release store, writes the new frame into the block and then
//    releases the tail. It never writes the inline slot again. The consumer
//    loads the spill pointer with acquire after its acquire of the tail, so
//    a frame pushed after the spill is read from the block, and a frame
//    pushed before it is the same in either copy. Each ring gets its own
//    block from operator new, not from an arena the table shares, because
//    each ring's push() may run on its own thread.
//  * Ring r's simulated region starts at base + r × stride. It is computed,
//    not stored.
//  * add() must not run concurrently with push/pop on any ring: the
//    scheduler is single-threaded, and concurrent users add every ring
//    before their threads start.
//
// Cost accounting: the simulated descriptor is kDescriptorWords 32-bit
// words, whatever the host slot's size or place. Position i's words sit at
// region + i × 16 and the head/tail word at region + 4096, spilled or not.
// Reads and writes report through the CostHook according to the residency
// (pinned memory words vs hardware-queue registers); a hook that is not
// accounted is never called.
#pragma once

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
        residency_{residency},
        charged_{hook.accounted()},
        base_{base},
        stride_{stride},
        hook_{&hook} {
    assert(capacity >= 1 && capacity < UINT32_MAX);
  }
  RingTable(const RingTable&) = delete;
  RingTable& operator=(const RingTable&) = delete;
  ~RingTable() {
    for (std::size_t r = 0; r < rings_; ++r) {
      delete[] record(r).spill.load(std::memory_order_relaxed);
    }
  }

  /// Append an empty ring; returns its index (0, 1, 2, ...).
  std::size_t add() {
    const std::size_t r = rings_;
    if ((r & kPageMask) == 0) {
      pages_.push_back(std::make_unique_for_overwrite<std::byte[]>(
          sizeof(Record) << kPageShift));
    }
    ++rings_;
    ::new (static_cast<void*>(storage(r))) Record;
    return r;
  }
  /// Pre-size the page list for `n` rings (host-side capacity planning).
  void reserve(std::size_t n) {
    pages_.reserve((n + kPageMask) >> kPageShift);
  }

  [[nodiscard]] std::size_t rings() const { return rings_; }
  [[nodiscard]] static constexpr std::size_t rings_per_page() {
    return std::size_t{1} << kPageShift;
  }
  /// Bytes of the block a ring takes at its second frame.
  [[nodiscard]] std::size_t block_bytes() const {
    return std::size_t{slots_} * kSlotBytes;
  }

  [[nodiscard]] bool empty(std::size_t r) const {
    const Record& rec = record(r);
    return rec.head.load(std::memory_order_acquire) ==
           rec.tail.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::size_t size(std::size_t r) const {
    const Record& rec = record(r);
    const auto h = rec.head.load(std::memory_order_acquire);
    const auto t = rec.tail.load(std::memory_order_acquire);
    return (std::size_t{t} + slots_ - h) % slots_;
  }

  /// Producer side: returns false when full (producer must back off).
  bool push(std::size_t r, const FrameDescriptor& d) {
    Record& rec = record(r);
    const auto t = rec.tail.load(std::memory_order_relaxed);
    const auto next = (t + 1) % slots_;
    const auto h = rec.head.load(std::memory_order_acquire);
    if (next == h) return false;
    touch_slot(r, t);  // descriptor store
    std::byte* block = rec.spill.load(std::memory_order_relaxed);
    if (block == nullptr && h != t) block = spill(rec, h);
    store(block ? block + std::size_t{t} * kSlotBytes : rec.inline_slot, d);
    touch_pointer(r);  // tail pointer update
    rec.tail.store(next, std::memory_order_release);
    return true;
  }

  /// Consumer side: peek the head descriptor without removing it.
  [[nodiscard]] std::optional<FrameDescriptor> front(std::size_t r) const {
    const Record& rec = record(r);
    const auto h = rec.head.load(std::memory_order_relaxed);
    if (h == rec.tail.load(std::memory_order_acquire)) return std::nullopt;
    touch_slot(r, h);
    return load(rec, h);
  }

  /// Consumer side: drop the head descriptor. Precondition: not empty.
  void pop(std::size_t r) {
    Record& rec = record(r);
    const auto h = rec.head.load(std::memory_order_relaxed);
    assert(h != rec.tail.load(std::memory_order_acquire));
    touch_pointer(r);
    rec.head.store((h + 1) % slots_, std::memory_order_release);
  }

  /// Observability variants that charge nothing through the CostHook: for
  /// drop notifications and crash wipes, where the simulated CPU is not doing
  /// the access (or no longer exists). Never use these on the scheduling hot
  /// path — they would silently under-charge it.
  [[nodiscard]] std::optional<FrameDescriptor> front_unaccounted(
      std::size_t r) const {
    const Record& rec = record(r);
    const auto h = rec.head.load(std::memory_order_relaxed);
    if (h == rec.tail.load(std::memory_order_acquire)) return std::nullopt;
    return load(rec, h);
  }
  void pop_unaccounted(std::size_t r) {
    Record& rec = record(r);
    const auto h = rec.head.load(std::memory_order_relaxed);
    assert(h != rec.tail.load(std::memory_order_acquire));
    rec.head.store((h + 1) % slots_, std::memory_order_release);
  }

 private:
  /// One slot: every descriptor field, unpadded. store() and load() name the
  /// same four fields through a structured binding, which stops compiling
  /// when a field is added to or removed from FrameDescriptor.
  static constexpr std::size_t kSlotBytes =
      sizeof(FrameDescriptor::frame_id) + sizeof(FrameDescriptor::enqueued_at) +
      sizeof(FrameDescriptor::bytes) + sizeof(FrameDescriptor::type);
  static_assert(kSlotBytes == 21, "frame_id 8, enqueued_at 8, bytes 4, type 1");

  /// One ring in a page. `spill` is null until the ring's second frame.
  struct Record {
    std::atomic<std::byte*> spill{nullptr};
    std::atomic<std::uint32_t> head{0};
    std::atomic<std::uint32_t> tail{0};
    std::byte inline_slot[kSlotBytes];
  };
  static_assert(sizeof(Record) == 40,
                "spill 8, head 4, tail 4, slot 21, padded to 8");
  static_assert(std::atomic<std::byte*>::is_always_lock_free);
  static_assert(std::atomic<std::uint32_t>::is_always_lock_free);
  static_assert(std::is_trivially_copyable_v<FrameDescriptor>);
  static_assert(std::is_trivially_destructible_v<Record>);

  /// Rings per page is the largest power of two whose records fit in 64 KiB.
  static constexpr unsigned kPageShift =
      std::bit_width(64 * 1024 / sizeof(Record)) - 1;
  static constexpr std::size_t kPageMask = (std::size_t{1} << kPageShift) - 1;

  [[nodiscard]] std::byte* storage(std::size_t r) const {
    assert(r < rings_);
    return pages_[r >> kPageShift].get() + (r & kPageMask) * sizeof(Record);
  }
  [[nodiscard]] Record& record(std::size_t r) const {
    return *std::launder(reinterpret_cast<Record*>(storage(r)));
  }
  /// Producer side, on a ring that holds its one frame at position h: move
  /// that frame to slot h of a new block and publish the block.
  std::byte* spill(Record& rec, std::uint32_t h) {
    auto* block = new std::byte[block_bytes()];
    std::memcpy(block + std::size_t{h} * kSlotBytes, rec.inline_slot,
                kSlotBytes);
    rec.spill.store(block, std::memory_order_release);
    return block;
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
  static void store(std::byte* at, const FrameDescriptor& d) {
    const auto& [frame_id, bytes, type, enqueued_at] = d;
    pack(at, frame_id, enqueued_at, bytes, type);
  }
  /// Consumer side: position i's frame, from the block once there is one.
  [[nodiscard]] static FrameDescriptor load(const Record& rec,
                                            std::uint32_t i) {
    const std::byte* block = rec.spill.load(std::memory_order_acquire);
    FrameDescriptor d;
    auto& [frame_id, bytes, type, enqueued_at] = d;
    unpack(block ? block + std::size_t{i} * kSlotBytes : rec.inline_slot,
           frame_id, enqueued_at, bytes, type);
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
  std::uint32_t slots_;  // capacity + 1
  DescriptorResidency residency_;
  bool charged_;
  SimAddr base_;
  SimAddr stride_;
  CostHook* hook_;
};

}  // namespace nistream::dwcs
