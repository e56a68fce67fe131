// Allocation audit for stream creation. Every stream's descriptor ring lives
// in the scheduler's one ring table, whose pages each hold many rings, so
// creating streams after reserve_streams() allocates one page per page-full
// of rings and nothing per stream. This binary replaces ::operator new with
// the counting shim to prove it.
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

}  // namespace
}  // namespace nistream::dwcs
