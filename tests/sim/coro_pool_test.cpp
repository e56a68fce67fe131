// Coroutine frame pool: after warm-up, repeated frame traversal must be
// served entirely from the per-thread free lists — fresh_blocks and
// oversize_blocks stay flat while frames/pool_reuses grow. Counters are
// thread_local, so deltas within one test are unaffected by other binaries;
// within this binary the tests only ever compare snapshots taken locally.
#include "sim/coro.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <set>
#include <vector>

namespace nistream::sim {
namespace {

TEST(BlockPool, CarvesBlocksFromSlabsAndReusesThemLastInFirstOut) {
  // 64-byte blocks: 1,024 fill one 64 KiB slab, so 2,048 take exactly two,
  // each block aligned for any frame and distinct from every other. Blocks
  // handed back are served again, most recent first, without a new slab.
  using Pool = detail::BlockPool<64, 4>;
  constexpr std::size_t kBlocks = 2 * Pool::kSlabBytes / 64;
  Pool pool;
  std::vector<void*> blocks;
  for (std::size_t i = 0; i < kBlocks; ++i) blocks.push_back(pool.allocate(60));
  EXPECT_EQ(pool.stats().slabs, 2u);
  EXPECT_EQ(pool.stats().fresh_blocks, kBlocks);
  EXPECT_EQ(std::set<void*>(blocks.begin(), blocks.end()).size(), kBlocks);
  for (void* b : blocks) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % alignof(std::max_align_t),
              0u);
  }
  pool.release(blocks[7], Pool::bucket_of(60));
  pool.release(blocks[3], Pool::bucket_of(60));
  EXPECT_EQ(pool.allocate(64), blocks[3]);
  EXPECT_EQ(pool.allocate(33), blocks[7]);
  EXPECT_NE(pool.allocate(100), blocks[7]) << "another bucket's block";
  EXPECT_EQ(pool.stats().slabs, 3u) << "the 128-byte block opens a slab";
  EXPECT_EQ(pool.stats().pool_reuses, 2u);
}

Coro tick(Engine& eng, int& out) {
  co_await Delay{eng, Time::us(1)};
  ++out;
}

TEST(CoroPool, SteadyStateAllocatesNoFreshBlocks) {
  Engine eng;
  int done = 0;
  // Warm-up at the same peak concurrency as the steady-state batch: the pool
  // holds one free block per frame *simultaneously alive*, not per frame
  // ever created.
  constexpr int kFrames = 256;
  for (int i = 0; i < kFrames; ++i) tick(eng, done).detach();
  eng.run();
  ASSERT_EQ(done, kFrames);

  const auto before = coro_pool_stats();
  for (int i = 0; i < kFrames; ++i) tick(eng, done).detach();
  eng.run();
  const auto after = coro_pool_stats();

  EXPECT_EQ(done, 2 * kFrames);
  EXPECT_EQ(after.frames - before.frames, static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(after.fresh_blocks, before.fresh_blocks)
      << "steady-state traversal must not touch ::operator new";
  EXPECT_EQ(after.oversize_blocks, before.oversize_blocks);
  EXPECT_EQ(after.pool_reuses - before.pool_reuses,
            static_cast<std::uint64_t>(kFrames));
}

TEST(CoroPool, CompletedFramesAreReleasedBackToThePool) {
  Engine eng;
  int done = 0;
  const auto before = coro_pool_stats();
  for (int i = 0; i < 16; ++i) tick(eng, done).detach();
  eng.run();
  const auto after = coro_pool_stats();
  EXPECT_EQ(done, 16);
  EXPECT_GE(after.releases - before.releases, 16u)
      << "every completed frame must drop its block back into a free list";
}

Coro huge_frame(Engine& eng, std::size_t& out) {
  // A >2 KiB local held across a suspension point forces the frame past the
  // largest pool bucket, exercising the oversize ::operator new path.
  std::array<std::byte, 4096> big{};
  big[0] = std::byte{42};
  co_await Delay{eng, Time::us(1)};
  out = static_cast<std::size_t>(big[0]);
}

TEST(CoroPool, OversizeFramesFallBackToHeapAndStayCorrect) {
  Engine eng;
  std::size_t got = 0;
  const auto before = coro_pool_stats();
  huge_frame(eng, got).detach();
  eng.run();
  const auto after = coro_pool_stats();
  EXPECT_EQ(got, 42u) << "locals must survive suspension in oversize frames";
  EXPECT_EQ(after.oversize_blocks - before.oversize_blocks, 1u);
  EXPECT_EQ(after.releases - before.releases, 1u)
      << "oversize blocks are freed, not pooled, but still counted released";
}

TEST(CoroPool, FramesAreCountedInTheirBucket) {
  // Every pooled frame lands in the one bucket its size maps to; an
  // oversize frame is in none of them.
  Engine eng;
  int done = 0;
  std::size_t got = 0;
  const auto before = coro_pool_stats();
  for (int i = 0; i < 8; ++i) tick(eng, done).detach();
  huge_frame(eng, got).detach();
  eng.run();
  const auto after = coro_pool_stats();
  std::uint64_t bucketed = 0;
  std::size_t buckets_used = 0;
  for (std::size_t b = 0; b < after.bucket_frames.size(); ++b) {
    const std::uint64_t n = after.bucket_frames[b] - before.bucket_frames[b];
    bucketed += n;
    buckets_used += n != 0;
  }
  EXPECT_EQ(after.frames - before.frames, 9u);
  EXPECT_EQ(after.oversize_blocks - before.oversize_blocks, 1u);
  EXPECT_EQ(bucketed, 8u);
  EXPECT_EQ(buckets_used, 1u);  // one coroutine, one frame size
}

// Mixed workload: nested frames (parent awaits child) recycle just as well.
Coro child(Engine& eng) { co_await Delay{eng, Time::us(1)}; }

Coro parent(Engine& eng, int& out) {
  co_await child(eng);
  ++out;
}

TEST(CoroPool, NestedJoinsReuseBlocksInSteadyState) {
  Engine eng;
  int done = 0;
  for (int i = 0; i < 64; ++i) parent(eng, done).detach();
  eng.run();
  ASSERT_EQ(done, 64);

  const auto before = coro_pool_stats();
  for (int i = 0; i < 64; ++i) parent(eng, done).detach();
  eng.run();
  const auto after = coro_pool_stats();
  EXPECT_EQ(done, 128);
  EXPECT_EQ(after.fresh_blocks, before.fresh_blocks);
  EXPECT_EQ(after.frames - before.frames, 128u);  // parent + child per pair
}

}  // namespace
}  // namespace nistream::sim
