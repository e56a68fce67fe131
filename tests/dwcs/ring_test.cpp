// Tests for the per-stream SPSC circular buffers and the table that holds
// them. FrameRing.* cases drive one ring of a table on its own, including
// real two-thread tests backing the paper's no-synchronization claim (Figure
// 4b), one of them across a ring's spill from its inline slot to its block.
// RingTable.* cases cover what the table adds: the simulated address map of
// rings on and past the first page, spilled or not, the packed slot, page
// geometry, and several rings in use by their own threads at once.
#include "dwcs/ring.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <thread>
#include <vector>

namespace nistream::dwcs {
namespace {

FrameDescriptor desc(std::uint64_t id, std::uint32_t bytes = 1000) {
  return FrameDescriptor{.frame_id = id, .bytes = bytes,
                         .type = mpeg::FrameType::kI,
                         .enqueued_at = sim::Time::zero()};
}

/// A table of one ring at 0x1000 (the stride never matters for ring 0).
RingTable one_ring(std::size_t capacity,
                   DescriptorResidency residency =
                       DescriptorResidency::kPinnedMemory,
                   CostHook& hook = null_cost_hook()) {
  return RingTable{capacity, residency, 0x1000, 0x10000, hook};
}

TEST(FrameRing, FifoOrder) {
  RingTable ring = one_ring(8);
  const auto r = ring.add();
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_TRUE(ring.push(r, desc(i)));
  EXPECT_EQ(ring.size(r), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    const auto f = ring.front(r);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->frame_id, i);
    ring.pop(r);
  }
  EXPECT_TRUE(ring.empty(r));
}

TEST(FrameRing, FullRejectsPush) {
  RingTable ring = one_ring(3);
  const auto r = ring.add();
  EXPECT_TRUE(ring.push(r, desc(0)));
  EXPECT_TRUE(ring.push(r, desc(1)));
  EXPECT_TRUE(ring.push(r, desc(2)));
  EXPECT_FALSE(ring.push(r, desc(3)));
  ring.pop(r);
  EXPECT_TRUE(ring.push(r, desc(3)));  // slot freed
}

TEST(FrameRing, FrontOnEmptyIsNullopt) {
  RingTable ring = one_ring(4);
  const auto r = ring.add();
  EXPECT_FALSE(ring.front(r).has_value());
}

TEST(FrameRing, WrapsManyTimes) {
  RingTable ring = one_ring(4);
  const auto r = ring.add();
  std::uint64_t next_out = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(ring.push(r, desc(i)));
    if (i % 2 == 1) {  // drain two at a time
      ASSERT_EQ(ring.front(r)->frame_id, next_out++);
      ring.pop(r);
      ASSERT_EQ(ring.front(r)->frame_id, next_out++);
      ring.pop(r);
    }
  }
}

// Cost accounting: pinned-memory rings report simulated addresses; the
// hardware-queue residency reports register accesses instead.
struct CountingHook final : CostHook {
  int mem_touches = 0;
  int reg_touches = 0;
  void mem(SimAddr) override { ++mem_touches; }
  void reg() override { ++reg_touches; }
};

TEST(FrameRing, PinnedMemoryChargesMemWords) {
  CountingHook hook;
  RingTable ring = one_ring(8, DescriptorResidency::kPinnedMemory, hook);
  const auto r = ring.add();
  ring.push(r, desc(0));
  EXPECT_EQ(hook.mem_touches, RingTable::kDescriptorWords + 1);  // + tail ptr
  EXPECT_EQ(hook.reg_touches, 0);
}

TEST(FrameRing, HardwareQueueChargesRegisters) {
  CountingHook hook;
  RingTable ring = one_ring(8, DescriptorResidency::kHardwareQueue, hook);
  const auto r = ring.add();
  ring.push(r, desc(0));
  (void)ring.front(r);
  EXPECT_EQ(hook.mem_touches, 0);
  EXPECT_EQ(hook.reg_touches, 2 * RingTable::kDescriptorWords + 1);
}

// The SPSC concurrency property: one producer thread, one consumer thread,
// no locks, every descriptor arrives exactly once and in order.
TEST(FrameRing, ConcurrentSpscStress) {
  constexpr std::uint64_t kCount = 200000;
  RingTable ring = one_ring(64);
  const auto r = ring.add();
  std::vector<std::uint64_t> got;
  got.reserve(kCount);

  std::thread producer{[&] {
    for (std::uint64_t i = 0; i < kCount; ++i) {
      while (!ring.push(r, desc(i))) std::this_thread::yield();
    }
  }};
  std::thread consumer{[&] {
    while (got.size() < kCount) {
      const auto f = ring.front(r);
      if (!f) {
        std::this_thread::yield();
        continue;
      }
      got.push_back(f->frame_id);
      ring.pop(r);
    }
  }};
  producer.join();
  consumer.join();

  ASSERT_EQ(got.size(), kCount);
  for (std::uint64_t i = 0; i < kCount; ++i) ASSERT_EQ(got[i], i);
}

// The spill under two threads, in the order that forces it: the consumer has
// read frame 0 from the inline slot and keeps reading it, without popping,
// while the producer's push of frame 1 moves it into the block. Then the
// producer pushes the rest while the consumer pops. Each of many fresh rings
// spills once, and every frame arrives once and in order. Frame ids are
// unique and never 0, so a frame lost in the spill cannot pass for one.
TEST(FrameRing, SpillsWhileTheConsumerReadsTheInlineFrame) {
  constexpr std::size_t kRings = 2000;
  constexpr std::uint64_t kFrames = 12;  // wraps a capacity-4 ring twice
  const auto id = [](std::size_t r, std::uint64_t i) {
    return r * kFrames + i + 1;
  };
  RingTable t = one_ring(4);
  for (std::size_t i = 0; i < kRings; ++i) t.add();
  std::atomic<std::size_t> held{kRings};  // ring whose frame 0 was read
  std::vector<std::vector<std::uint64_t>> got(kRings);
  bool rereads_ok = true;

  std::thread producer{[&] {
    for (std::size_t r = 0; r < kRings; ++r) {
      EXPECT_TRUE(t.push(r, desc(id(r, 0))));
      while (held.load(std::memory_order_acquire) != r) {
        std::this_thread::yield();
      }
      for (std::uint64_t i = 1; i < kFrames; ++i) {
        while (!t.push(r, desc(id(r, i)))) std::this_thread::yield();
      }
    }
  }};
  std::thread consumer{[&] {
    for (std::size_t r = 0; r < kRings; ++r) {
      while (t.empty(r)) std::this_thread::yield();
      held.store(r, std::memory_order_release);
      while (t.size(r) < 2) rereads_ok &= t.front(r)->frame_id == id(r, 0);
      while (got[r].size() < kFrames) {
        const auto f = t.front(r);
        if (!f) {
          std::this_thread::yield();
          continue;
        }
        got[r].push_back(f->frame_id);
        t.pop(r);
      }
    }
  }};
  producer.join();
  consumer.join();

  EXPECT_TRUE(rereads_ok);
  for (std::size_t r = 0; r < kRings; ++r) {
    ASSERT_EQ(got[r].size(), kFrames) << "ring " << r;
    for (std::uint64_t i = 0; i < kFrames; ++i) {
      ASSERT_EQ(got[r][i], id(r, i)) << "ring " << r;
    }
  }
}

// --- The table ---------------------------------------------------------

/// Records every charge in order: a memory word's address, or a register
/// access (kReg). `accounted` is what the hook reports to the table.
struct RecordingHook final : CostHook {
  static constexpr SimAddr kReg = ~SimAddr{0};
  explicit RecordingHook(bool is_accounted = true)
      : is_accounted_{is_accounted} {}
  void arith_int(Op, int) override { ++other; }
  void arith_float(Op, int) override { ++other; }
  void mem(SimAddr addr) override { touches.push_back(addr); }
  void reg() override { touches.push_back(kReg); }
  void cycles(std::int64_t) override { ++other; }
  [[nodiscard]] bool accounted() const override { return is_accounted_; }

  std::vector<SimAddr> touches;
  int other = 0;

 private:
  bool is_accounted_;
};

constexpr SimAddr kBase = 0x0200'0000;
constexpr SimAddr kStride = 0x10000;
constexpr std::size_t kCapacity = 8;  // 9 slots

/// Adds rings until ring past_first_page() exists, on the second page.
void add_past_first_page(RingTable& t) {
  while (t.rings() < t.rings_per_page() + 2) t.add();
}
std::size_t past_first_page(const RingTable& t) {
  return t.rings_per_page() + 1;
}

// Eleven push/front/pop rounds walk every position and wrap once. Ring r's
// descriptor at position s is at base + r × stride + s × 16 + {0, 4, 8, 12},
// and its head/tail word at base + r × stride + 4096. Ring 2 holds a second
// frame in every round: its first round's push spills it, and its frames are
// charged at the same words from its block.
TEST(RingTable, PinnedAddressMapAtRingsZeroOneAndPastTheFirstPage) {
  RecordingHook hook;
  RingTable t{kCapacity, DescriptorResidency::kPinnedMemory, kBase, kStride,
              hook};
  add_past_first_page(t);
  ASSERT_GT(past_first_page(t), 2u);
  struct Input {
    std::size_t ring;
    std::uint64_t held;  // frames the ring holds before each round's push
  };
  for (const Input in : {Input{0, 0}, Input{1, 0},
                         Input{past_first_page(t), 0}, Input{2, 1}}) {
    const std::size_t r = in.ring;
    const SimAddr region = kBase + r * kStride;
    const auto words = [region](std::uint64_t position) {
      const SimAddr slot = region + (position % (kCapacity + 1)) * 16;
      return std::vector<SimAddr>{slot, slot + 4, slot + 8, slot + 12};
    };
    for (std::uint64_t k = 0; k < in.held; ++k) ASSERT_TRUE(t.push(r, desc(k)));
    for (std::uint64_t round = 0; round < 11; ++round) {
      hook.touches.clear();
      ASSERT_TRUE(t.push(r, desc(round + in.held)));
      std::vector<SimAddr> want = words(round + in.held);
      want.push_back(region + 4096);
      EXPECT_EQ(hook.touches, want) << "push, ring " << r << " round " << round;

      hook.touches.clear();
      ASSERT_EQ(t.front(r)->frame_id, round);
      EXPECT_EQ(hook.touches, words(round)) << "front, ring " << r;

      hook.touches.clear();
      t.pop(r);
      EXPECT_EQ(hook.touches, std::vector<SimAddr>{region + 4096})
          << "pop, ring " << r;
    }
    EXPECT_EQ(t.size(r), in.held);
  }
  EXPECT_EQ(hook.other, 0);
}

TEST(RingTable, HardwareQueueChargesRegistersOnlyAtEveryRing) {
  RecordingHook hook;
  RingTable t{kCapacity, DescriptorResidency::kHardwareQueue, kBase, kStride,
              hook};
  add_past_first_page(t);
  for (const std::size_t r : {std::size_t{0}, std::size_t{1},
                              past_first_page(t)}) {
    hook.touches.clear();
    ASSERT_TRUE(t.push(r, desc(r)));
    ASSERT_EQ(t.front(r)->frame_id, r);
    t.pop(r);
    // push: 4 descriptor words + the index register; front: 4; pop: 1.
    EXPECT_EQ(hook.touches,
              std::vector<SimAddr>(2 * RingTable::kDescriptorWords + 2,
                                   RecordingHook::kReg))
        << "ring " << r;
  }
  EXPECT_EQ(hook.other, 0);
}

TEST(RingTable, HookThatIsNotAccountedIsNeverCalled) {
  for (const auto residency : {DescriptorResidency::kPinnedMemory,
                               DescriptorResidency::kHardwareQueue}) {
    RecordingHook hook{/*is_accounted=*/false};
    RingTable t{kCapacity, residency, kBase, kStride, hook};
    add_past_first_page(t);
    for (const std::size_t r : {std::size_t{0}, std::size_t{1},
                                past_first_page(t)}) {
      ASSERT_TRUE(t.push(r, desc(r)));
      ASSERT_EQ(t.front(r)->frame_id, r);
      t.pop(r);
    }
    EXPECT_TRUE(hook.touches.empty());
    EXPECT_EQ(hook.other, 0);
  }
}

// Every field keeps its own bytes in a slot. Descriptors at each field's
// limits alternate with all-zero ones, so a field written over its
// neighbour, or a slot over the next, shows in the other. Three adjacent
// rings, the last two of the first page and the first of the second, first
// take every descriptor one at a time in their inline slots. Then they are
// filled and drained twice, which spills them and walks all nine slots of
// each block.
TEST(RingTable, SlotKeepsEveryFieldAtItsLimits) {
  constexpr std::array kTypes{mpeg::FrameType::kI, mpeg::FrameType::kP,
                              mpeg::FrameType::kB};
  const auto make = [&](std::size_t r, std::uint64_t k) {
    if (k % 2 == 1) {
      return FrameDescriptor{.frame_id = 0, .bytes = 0, .type = kTypes[k % 3],
                             .enqueued_at = sim::Time::zero()};
    }
    return FrameDescriptor{
        .frame_id = UINT64_MAX - k,
        .bytes = UINT32_MAX - static_cast<std::uint32_t>(r),
        .type = kTypes[k % 3],
        .enqueued_at = sim::Time::never() - sim::Time::ns(
                                                static_cast<std::int64_t>(k))};
  };
  RingTable t = one_ring(kCapacity);
  add_past_first_page(t);
  const auto pop_expecting = [&](std::size_t r, std::uint64_t k) {
    const FrameDescriptor want = make(r, k);
    const auto got = t.front(r);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->frame_id, want.frame_id) << "ring " << r << " k " << k;
    EXPECT_EQ(got->bytes, want.bytes) << "ring " << r << " k " << k;
    EXPECT_EQ(got->type, want.type) << "ring " << r << " k " << k;
    EXPECT_EQ(got->enqueued_at.raw_ns(), want.enqueued_at.raw_ns())
        << "ring " << r << " k " << k;
    t.pop(r);
  };
  const std::size_t first = t.rings_per_page() - 2;
  for (std::size_t r = first; r < first + 3; ++r) {
    for (std::uint64_t k = 0; k < kCapacity; ++k) {
      ASSERT_TRUE(t.push(r, make(r, k)));
      pop_expecting(r, k);
    }
  }
  for (int fill = 0; fill < 2; ++fill) {
    for (std::size_t r = first; r < first + 3; ++r) {
      for (std::uint64_t k = 0; k < kCapacity; ++k) {
        ASSERT_TRUE(t.push(r, make(r, k)));
      }
    }
    for (std::size_t r = first; r < first + 3; ++r) {
      for (std::uint64_t k = 0; k < kCapacity; ++k) pop_expecting(r, k);
      EXPECT_TRUE(t.empty(r));
    }
  }
}

// A ring's record is 40 bytes at any capacity, so a page holds 1,024 of them
// in 40,960 bytes (2,048 would not fit in 64 KiB). The block a ring takes at
// its second frame holds capacity + 1 slots of 21 bytes.
TEST(RingTable, PagesHoldAPowerOfTwoRingsAndAtLeastOne) {
  EXPECT_EQ(RingTable::rings_per_page(), 1024u);
  EXPECT_EQ(one_ring(1).block_bytes(), 42u);
  EXPECT_EQ(one_ring(8).block_bytes(), 189u);
  EXPECT_EQ(one_ring(256).block_bytes(), 5'397u);
  EXPECT_EQ(one_ring(4096).block_bytes(), 86'037u);
}

// Adding rings allocates new pages but never moves a ring: what ring 0
// holds survives the growth of the page list, across many pages.
TEST(RingTable, RingsKeepTheirFramesWhilePagesAreAdded) {
  RingTable t = one_ring(2);
  const auto r0 = t.add();
  ASSERT_TRUE(t.push(r0, desc(7)));
  std::vector<std::size_t> rings;
  while (t.rings() < 20 * t.rings_per_page()) {
    const auto r = t.add();
    ASSERT_EQ(r, t.rings() - 1);
    ASSERT_TRUE(t.empty(r));
    ASSERT_TRUE(t.push(r, desc(r)));
    rings.push_back(r);
  }
  EXPECT_EQ(t.front(r0)->frame_id, 7u);
  for (const auto r : rings) {
    ASSERT_EQ(t.size(r), 1u);
    ASSERT_EQ(t.front(r)->frame_id, r);
  }
}

// Four rings of one table, each with its own producer and consumer thread,
// all running at once: every ring's sequence arrives complete and in order,
// and no descriptor crosses into another ring. The rings are added before
// any thread starts.
TEST(RingTable, FourRingsWithTheirOwnProducersAndConsumers) {
  constexpr std::size_t kRings = 4;
  constexpr std::uint64_t kCount = 50000;
  RingTable t = one_ring(16);
  for (std::size_t i = 0; i < kRings; ++i) t.add();
  std::array<std::vector<FrameDescriptor>, kRings> got;
  for (auto& g : got) g.reserve(kCount);

  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < kRings; ++r) {
    threads.emplace_back([&t, r] {
      for (std::uint64_t i = 0; i < kCount; ++i) {
        while (!t.push(r, desc(i, static_cast<std::uint32_t>(r)))) {
          std::this_thread::yield();
        }
      }
    });
    threads.emplace_back([&t, &got, r] {
      while (got[r].size() < kCount) {
        const auto f = t.front(r);
        if (!f) {
          std::this_thread::yield();
          continue;
        }
        got[r].push_back(*f);
        t.pop(r);
      }
    });
  }
  for (auto& th : threads) th.join();

  for (std::size_t r = 0; r < kRings; ++r) {
    ASSERT_EQ(got[r].size(), kCount);
    for (std::uint64_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(got[r][i].frame_id, i) << "ring " << r;
      ASSERT_EQ(got[r][i].bytes, r) << "ring " << r;
    }
    EXPECT_TRUE(t.empty(r));
  }
}

}  // namespace
}  // namespace nistream::dwcs
