// Tests for sim::Fifo: queue order and iteration across buffer compaction,
// and popping releases what an element owned.
#include "sim/fifo.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

namespace nistream::sim {
namespace {

TEST(Fifo, MatchesADequeUnderRandomPushPop) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    std::uint64_t lcg = seed * 2654435761u;
    const auto rnd = [&lcg](std::uint64_t n) {
      lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      return (lcg >> 33) % n;
    };
    Fifo<int> fifo;
    std::deque<int> ref;
    int next = 0;
    for (int op = 0; op < 5000; ++op) {
      // Push-biased phases then pop-biased ones, so the queue both grows
      // and drains through many compactions.
      const bool push_phase = (op / 500) % 2 == 0;
      if (ref.empty() || (rnd(4) != 0) == push_phase) {
        fifo.push_back(next);
        ref.push_back(next++);
      } else {
        EXPECT_EQ(fifo.front(), ref.front());
        EXPECT_EQ(fifo.pop_front(), ref.front());
        ref.pop_front();
      }
      ASSERT_EQ(fifo.size(), ref.size());
      ASSERT_EQ(fifo.empty(), ref.empty());
    }
    EXPECT_EQ(std::vector<int>(fifo.begin(), fifo.end()),
              std::vector<int>(ref.begin(), ref.end()))
        << "seed " << seed;
  }
}

TEST(Fifo, PopReleasesWhatTheElementOwned) {
  Fifo<std::shared_ptr<int>> fifo;
  const auto a = std::make_shared<int>(1);
  const auto b = std::make_shared<int>(2);
  fifo.push_back(a);
  fifo.push_back(b);
  EXPECT_EQ(a.use_count(), 2);
  EXPECT_EQ(*fifo.pop_front(), 1);
  EXPECT_EQ(a.use_count(), 1);  // gone with the pop, not at the next drain
  EXPECT_EQ(b.use_count(), 2);
  fifo.clear();
  EXPECT_EQ(b.use_count(), 1);
  EXPECT_TRUE(fifo.empty());
}

}  // namespace
}  // namespace nistream::sim
