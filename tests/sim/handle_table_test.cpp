// sim::HandleTable: LIFO reuse, generations that invalidate stale names,
// retirement when a slot's generations run out, the index limit, pages that
// never move an element, exact construction and destruction counts, the
// empty moved-from table, and no allocation on reuse.
#include "sim/handle_table.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "counting_new.hpp"

namespace nistream::sim {
namespace {

/// Counts how many instances were built and destroyed since reset().
struct Counted {
  static inline int built = 0;
  static inline int destroyed = 0;
  static void reset() { built = destroyed = 0; }

  explicit Counted(int v) : value{v} { ++built; }
  Counted(const Counted&) = delete;
  Counted& operator=(const Counted&) = delete;
  ~Counted() { ++destroyed; }

  int value;
};

TEST(HandleTable, ReusesTheMostRecentlyErasedIndexFirst) {
  HandleTable<int> t;
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(t.emplace(0), i);
  t.erase(1);
  t.erase(3);
  t.erase(0);
  EXPECT_EQ(t.emplace(10), 0u);
  EXPECT_EQ(t.emplace(11), 3u);
  EXPECT_EQ(t.emplace(12), 1u);
  EXPECT_EQ(t.emplace(13), 4u);  // the free list is empty: append
  EXPECT_EQ(t.size(), 5u);
  EXPECT_EQ(t.live_count(), 5u);
  EXPECT_EQ(t[3], 11);
}

TEST(HandleTable, EraseBumpsTheGeneration) {
  HandleTable<int> t;
  const std::uint32_t i = t.emplace(1);
  const Handle first{i, t.generation(i)};
  EXPECT_EQ(first.generation, 0u);
  EXPECT_TRUE(t.live(i, first.generation));
  t.erase(i);
  EXPECT_FALSE(t.live(i, first.generation)) << "a stale name is not live";
  EXPECT_EQ(t.generation(i), 1u);  // what the next occupant will carry
  EXPECT_EQ(t.live_count(), 0u);
  ASSERT_EQ(t.emplace(2), i);
  const Handle second{i, t.generation(i)};
  EXPECT_EQ(second.generation, 1u);
  EXPECT_TRUE(t.live(i, second.generation));
  EXPECT_FALSE(t.live(i, first.generation));
  EXPECT_FALSE(t.live(i + 1, 0)) << "past size() nothing is live";
  EXPECT_FALSE(Handle{}) << "the default handle names nothing";
}

TEST(HandleTable, SlotIsRetiredWhenItsGenerationsRunOut) {
  constexpr std::uint32_t kGenerations = 3;
  HandleTable<int> t{HandleTable<int>::kNoLimit, kGenerations};
  for (std::uint32_t g = 0; g < kGenerations; ++g) {
    ASSERT_EQ(t.emplace(0), 0u);
    ASSERT_EQ(t.generation(0), g);
    t.erase(0);
  }
  EXPECT_EQ(t.emplace(0), 1u) << "the retired slot was reissued";
  EXPECT_EQ(t.size(), 2u);
  for (std::uint32_t g = 0; g < kGenerations; ++g) {
    EXPECT_FALSE(t.live(0, g));
  }
}

TEST(HandleTable, EmplacingPastTheIndexLimitThrows) {
  HandleTable<int> t{2};
  (void)t.emplace(0);
  (void)t.emplace(1);
  EXPECT_THROW((void)t.emplace(2), std::length_error);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.live_count(), 2u);
  t.erase(0);
  EXPECT_EQ(t.emplace(3), 0u) << "a freed index is still reusable";
}

TEST(HandleTable, ElementAddressesSurviveGrowthAcrossPages) {
  constexpr std::uint32_t kCount = 8 * HandleTable<int>::kPageSlots + 3;
  HandleTable<std::uint64_t> t;
  std::vector<const std::uint64_t*> where;
  for (std::uint32_t i = 0; i < kCount; ++i) {
    where.push_back(&t[t.emplace(std::uint64_t{i} * 7)]);
  }
  for (std::uint32_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(&t[i], where[i]) << "element " << i << " moved";
    ASSERT_EQ(t[i], std::uint64_t{i} * 7);
  }
}

TEST(HandleTable, EraseDestroysOnceAndTheTableDestroysTheRest) {
  Counted::reset();
  {
    HandleTable<Counted> t;
    for (int i = 0; i < 5; ++i) (void)t.emplace(i);
    t.erase(1);
    t.erase(3);
    EXPECT_EQ(Counted::built, 5);
    EXPECT_EQ(Counted::destroyed, 2);
    (void)t.emplace(7);  // reuses slot 3
    EXPECT_EQ(Counted::built, 6);
    EXPECT_EQ(Counted::destroyed, 2);
  }
  EXPECT_EQ(Counted::destroyed, 6) << "each live element once, no freed one";
}

TEST(HandleTable, AllocatingAPageConstructsNothing) {
  Counted::reset();
  HandleTable<Counted> t;
  (void)t.emplace(0);
  EXPECT_EQ(Counted::built, 1);
  for (std::uint32_t i = 1; i <= HandleTable<Counted>::kPageSlots; ++i) {
    (void)t.emplace(static_cast<int>(i));  // the last one opens page two
  }
  EXPECT_EQ(t.size(), HandleTable<Counted>::kPageSlots + 1u);
  EXPECT_EQ(Counted::built,
            static_cast<int>(HandleTable<Counted>::kPageSlots) + 1);
  EXPECT_EQ(Counted::destroyed, 0);
}

TEST(HandleTable, MovedFromTableIsEmpty) {
  Counted::reset();
  HandleTable<Counted> a;
  const std::uint32_t i = a.emplace(4);
  const std::uint32_t gen = a.generation(i);
  HandleTable<Counted> b = std::move(a);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.live_count(), 0u);
  EXPECT_FALSE(a.live(i, gen));
  EXPECT_TRUE(b.live(i, gen));
  EXPECT_EQ(b[i].value, 4);
  EXPECT_EQ(Counted::built, 1) << "moving the table moves no element";
}

TEST(HandleTable, EmplacingIntoAFreedSlotAllocatesNothing) {
  HandleTable<std::vector<int>> t;
  for (int i = 0; i < 3; ++i) (void)t.emplace();
  t.erase(2);
  t.erase(0);
  const std::uint64_t before = test::heap_allocs();
  for (int round = 0; round < 100; ++round) {
    const std::uint32_t a = t.emplace();
    const std::uint32_t b = t.emplace();
    t.erase(b);
    t.erase(a);
  }
  EXPECT_EQ(test::heap_allocs() - before, 0u);
  EXPECT_EQ(t.size(), 3u);
}

}  // namespace
}  // namespace nistream::sim
