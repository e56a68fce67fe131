// Tests for the on-card memory pool.
#include "hw/memory.hpp"

#include <gtest/gtest.h>

namespace nistream::hw {
namespace {

TEST(Memory, AllocateAndRelease) {
  MemoryPool pool{1000};
  ASSERT_TRUE(pool.allocate(400));
  EXPECT_EQ(pool.used(), 400u);
  EXPECT_EQ(pool.available(), 600u);
  pool.release(400);
  EXPECT_EQ(pool.used(), 0u);
}

TEST(Memory, ExhaustionFailsCleanly) {
  MemoryPool pool{1000};
  EXPECT_TRUE(pool.allocate(600));
  EXPECT_FALSE(pool.allocate(500));  // would exceed capacity
  EXPECT_EQ(pool.used(), 600u);      // failed alloc changed nothing
  EXPECT_TRUE(pool.allocate(400));
}

TEST(Memory, FourMegabyteCardFitsExpectedFrameLoad) {
  // The design point from §3.1.2: single frame copies in 4 MB of NI memory.
  MemoryPool pool{4ull * 1024 * 1024};
  // ~150 frames of 8 KB (Tables 1-3 workload) is far below capacity…
  for (int i = 0; i < 151; ++i) ASSERT_TRUE(pool.allocate(8192));
  // …but a full 1000-frame, 8 KB working set would not fit without the
  // single-copy discipline.
  MemoryPool pool2{4ull * 1024 * 1024};
  bool exhausted = false;
  for (int i = 0; i < 1000 && !exhausted; ++i) {
    exhausted = !pool2.allocate(2 * 8192);  // two copies each
  }
  EXPECT_TRUE(exhausted);
}

}  // namespace
}  // namespace nistream::hw
