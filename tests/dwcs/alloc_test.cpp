// Allocation audit for stream creation and queued frames. Every stream's
// descriptor ring lives in the scheduler's one ring table, whose pages each
// hold 1,024 rings, so creating streams after reserve_streams() allocates
// one page per page-full of rings and nothing per stream. A ring keeps one
// frame in its own record and takes a block of its own only at its second
// frame, once. This binary replaces ::operator new with the counting shim to
// prove both.
//
// Under ASan/TSan the sanitizer owns the allocator and the shim is compiled
// out: the count reads 0 and the test only runs the code.
#include <gtest/gtest.h>

#include <cstdint>

#include "counting_new.hpp"
#include "dwcs/scheduler.hpp"

namespace nistream::dwcs {
namespace {

TEST(DwcsAllocFree, TenThousandStreamsAllocateLessThanOncePerSixtyFour) {
  constexpr std::size_t kStreams = 10'000;
  DwcsScheduler::Config cfg;
  cfg.ring_capacity = 8;  // the dwcs_shards benchmark's rings
  DwcsScheduler sched{cfg};
  sched.reserve_streams(kStreams);

  const std::uint64_t before = test::heap_allocs();
  for (std::size_t i = 0; i < kStreams; ++i) {
    sched.create_stream({.tolerance = {1, 4}, .period = sim::Time::ms(33)},
                        sim::Time::zero());
  }
  const std::uint64_t allocs = test::heap_allocs() - before;

  EXPECT_EQ(sched.stream_count(), kStreams);
  EXPECT_LT(allocs, kStreams / 64) << allocs << " allocations";
}

// One frame in each of 10,000 rings allocates nothing; a second frame
// allocates each ring's block, once; and 1,000 more push/pop rounds on every
// ring, each holding two or three frames, allocate nothing more.
TEST(DwcsAllocFree, RingTakesOneBlockAtItsSecondFrameAndNoMore) {
  constexpr std::size_t kRings = 10'000;
  RingTable t{8, DescriptorResidency::kPinnedMemory, 0x0200'0000, 0x10000,
              null_cost_hook()};
  t.reserve(kRings);
  for (std::size_t r = 0; r < kRings; ++r) t.add();
  const FrameDescriptor d;

  std::uint64_t before = test::heap_allocs();
  for (std::size_t r = 0; r < kRings; ++r) ASSERT_TRUE(t.push(r, d));
  [[maybe_unused]] const std::uint64_t first = test::heap_allocs() - before;

  before = test::heap_allocs();
  for (std::size_t r = 0; r < kRings; ++r) ASSERT_TRUE(t.push(r, d));
  [[maybe_unused]] const std::uint64_t second = test::heap_allocs() - before;

  before = test::heap_allocs();
  for (int round = 0; round < 1000; ++round) {
    for (std::size_t r = 0; r < kRings; ++r) {
      ASSERT_TRUE(t.push(r, d));
      t.pop(r);
    }
  }
  [[maybe_unused]] const std::uint64_t rounds = test::heap_allocs() - before;

  for (std::size_t r = 0; r < kRings; ++r) ASSERT_EQ(t.size(r), 2u);
#if NISTREAM_COUNTING_NEW
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(second, kRings);
  EXPECT_EQ(rounds, 0u);
#endif
}

}  // namespace
}  // namespace nistream::dwcs
