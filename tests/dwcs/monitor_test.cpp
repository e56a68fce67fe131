// Tests for the sliding-window violation monitor.
#include "dwcs/monitor.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <vector>

#include "sim/random.hpp"

namespace nistream::dwcs {
namespace {

using Outcome = WindowViolationMonitor::Outcome;

/// The monitor's window as it was kept before the bit ring: a deque of the
/// last y outcomes and a running loss count.
struct DequeWindowReference {
  WindowConstraint c;
  std::deque<bool> window;
  std::int64_t losses = 0;
  std::uint64_t packets = 0;
  std::uint64_t violating = 0;

  void record(bool lost) {
    window.push_back(lost);
    losses += lost;
    ++packets;
    if (static_cast<std::int64_t>(window.size()) > c.y) {
      losses -= window.front();
      window.pop_front();
    }
    if (static_cast<std::int64_t>(window.size()) == c.y && losses > c.x) {
      ++violating;
    }
  }
};

TEST(MonitorRing, MatchesADequeReference) {
  using Key = WindowViolationMonitor::StreamKey;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    sim::Rng rng{seed};
    WindowViolationMonitor m;
    std::vector<DequeWindowReference> refs;
    for (const std::int64_t y : {1, 4, 63, 64, 65, 200}) {
      const std::int64_t x =
          static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(y)));
      refs.push_back({.c = {x, y}});
      m.add_stream(Key{7, static_cast<StreamId>(refs.size() - 1)}, {x, y});
    }
    for (int step = 0; step < 3000; ++step) {
      const auto i = static_cast<std::size_t>(rng.below(refs.size()));
      // Loss rates from none to all, so windows both fill and clear.
      const std::uint64_t phase = static_cast<std::uint64_t>(step / 300) % 4;
      const bool lost = rng.below(4) < phase;
      const Outcome o =
          lost ? (rng.chance(0.5) ? Outcome::kLate : Outcome::kDropped)
               : Outcome::kOnTime;
      const Key key{7, static_cast<StreamId>(i)};
      m.record(key, o);
      refs[i].record(lost);
      ASSERT_EQ(m.violating_windows(key), refs[i].violating)
          << "seed " << seed << " y " << refs[i].c.y << " step " << step;
      ASSERT_EQ(m.packets(key), refs[i].packets);
    }
    std::uint64_t violating = 0;
    for (const auto& r : refs) violating += r.violating;
    EXPECT_EQ(m.total_violating_windows(), violating) << "seed " << seed;
    EXPECT_GT(violating, 0u) << "seed " << seed;
  }
}

TEST(Monitor, NoViolationWithinTolerance) {
  WindowViolationMonitor m;
  m.add_stream({1, 4});  // 1 loss per 4 allowed
  // Pattern: L O O O L O O O — every window of 4 has exactly 1 loss.
  for (int rep = 0; rep < 4; ++rep) {
    m.record(0, Outcome::kDropped);
    m.record(0, Outcome::kOnTime);
    m.record(0, Outcome::kOnTime);
    m.record(0, Outcome::kOnTime);
  }
  EXPECT_EQ(m.violating_windows(0), 0u);
  EXPECT_EQ(m.packets(0), 16u);
}

TEST(Monitor, AdjacentLossesViolate) {
  WindowViolationMonitor m;
  m.add_stream({1, 4});
  m.record(0, Outcome::kOnTime);
  m.record(0, Outcome::kOnTime);
  m.record(0, Outcome::kDropped);
  m.record(0, Outcome::kDropped);  // window OODD: 2 losses > 1
  EXPECT_EQ(m.violating_windows(0), 1u);
}

TEST(Monitor, SlidingWindowCountsEveryOffendingPosition) {
  WindowViolationMonitor m;
  m.add_stream({0, 3});  // zero tolerance
  m.record(0, Outcome::kOnTime);
  m.record(0, Outcome::kOnTime);
  m.record(0, Outcome::kLate);  // windows: OOL (violates)
  m.record(0, Outcome::kOnTime);  // OLO (violates)
  m.record(0, Outcome::kOnTime);  // LOO (violates)
  m.record(0, Outcome::kOnTime);  // OOO (fine)
  EXPECT_EQ(m.violating_windows(0), 3u);
}

TEST(Monitor, LateCountsAsLoss) {
  WindowViolationMonitor m;
  m.add_stream({0, 2});
  m.record(0, Outcome::kOnTime);
  m.record(0, Outcome::kLate);
  EXPECT_EQ(m.violating_windows(0), 1u);
}

TEST(Monitor, ShortSequencesCannotViolate) {
  WindowViolationMonitor m;
  m.add_stream({0, 5});
  for (int i = 0; i < 4; ++i) m.record(0, Outcome::kDropped);
  EXPECT_EQ(m.violating_windows(0), 0u);  // no full window of 5 yet
  m.record(0, Outcome::kDropped);
  EXPECT_EQ(m.violating_windows(0), 1u);
}

TEST(Monitor, PerStreamIndependence) {
  WindowViolationMonitor m;
  m.add_stream({0, 2});
  m.add_stream({2, 2});  // tolerates everything
  for (int i = 0; i < 10; ++i) {
    m.record(0, Outcome::kDropped);
    m.record(1, Outcome::kDropped);
  }
  EXPECT_GT(m.violating_windows(0), 0u);
  EXPECT_EQ(m.violating_windows(1), 0u);
  EXPECT_EQ(m.total_violating_windows(), m.violating_windows(0));
}

TEST(Monitor, ViolationRate) {
  WindowViolationMonitor m;
  m.add_stream({0, 2});
  m.record(0, Outcome::kDropped);
  m.record(0, Outcome::kDropped);  // window 1: violate
  m.record(0, Outcome::kOnTime);   // window 2: violate (D,O has 1 loss > 0)
  m.record(0, Outcome::kOnTime);   // window 3: fine
  // 3 full windows, 2 violating.
  EXPECT_DOUBLE_EQ(m.violation_rate(0), 2.0 / 3.0);
}

// Pinned goldens for the per-scope aggregates across three concurrent
// scopes — the numbers the tenant-isolation chaos gate compares. All rates
// are hand-computed from the outcome sequences below.
TEST(Monitor, PerScopeRatesAcrossThreeScopes) {
  using Key = WindowViolationMonitor::StreamKey;
  WindowViolationMonitor m;
  // Scope 1: one collapsed stream, one clean stream, both 1/2.
  m.add_stream(Key{1, 0}, {1, 2});
  m.add_stream(Key{1, 1}, {1, 2});
  for (int i = 0; i < 4; ++i) m.record(Key{1, 0}, Outcome::kDropped);
  for (int i = 0; i < 4; ++i) m.record(Key{1, 1}, Outcome::kOnTime);
  // Scope 2: 1/4 stream with a lone leading loss — never violates.
  m.add_stream(Key{2, 0}, {1, 4});
  m.record(Key{2, 0}, Outcome::kDropped);
  for (int i = 0; i < 4; ++i) m.record(Key{2, 0}, Outcome::kOnTime);
  // Scope 3: zero-tolerance 0/2 stream with one mid-sequence loss.
  m.add_stream(Key{3, 5}, {0, 2});
  m.record(Key{3, 5}, Outcome::kOnTime);
  m.record(Key{3, 5}, Outcome::kLate);
  m.record(Key{3, 5}, Outcome::kOnTime);

  // Scope 1: stream 0 violates all 3 of its window positions, stream 1 none
  // of its 3 → max 1.0, aggregate 3/6, one violating stream.
  EXPECT_DOUBLE_EQ(m.scope_max_violation_rate(1), 1.0);
  EXPECT_DOUBLE_EQ(m.scope_aggregate_violation_rate(1), 3.0 / 6.0);
  EXPECT_EQ(m.scope_violating_streams(1), 1u);
  // Scope 2: 2 positions, 0 violations.
  EXPECT_DOUBLE_EQ(m.scope_max_violation_rate(2), 0.0);
  EXPECT_DOUBLE_EQ(m.scope_aggregate_violation_rate(2), 0.0);
  EXPECT_EQ(m.scope_violating_streams(2), 0u);
  // Scope 3: both full windows contain the loss → 2/2.
  EXPECT_DOUBLE_EQ(m.scope_max_violation_rate(3), 1.0);
  EXPECT_DOUBLE_EQ(m.scope_aggregate_violation_rate(3), 1.0);
  EXPECT_EQ(m.scope_violating_streams(3), 1u);
  // An untouched scope reads as clean, not as an error.
  EXPECT_DOUBLE_EQ(m.scope_max_violation_rate(9), 0.0);
  EXPECT_EQ(m.scope_violating_streams(9), 0u);
  // Global aggregates span every scope: (3+0+2) / (6+2+2).
  EXPECT_DOUBLE_EQ(m.aggregate_violation_rate(), 5.0 / 10.0);
  EXPECT_DOUBLE_EQ(m.max_violation_rate(), 1.0);
}

// Retire-before-purge ordering: once a placement is retired, the purge's
// drop storm must not move its scope's rates — the golden the session
// plane's close_session sequence (retire, then purge_stream) relies on.
TEST(Monitor, RetireFreezesScopeRatesBeforePurge) {
  using Key = WindowViolationMonitor::StreamKey;
  WindowViolationMonitor m;
  m.add_stream(Key{1, 0}, {1, 2});
  m.record(Key{1, 0}, Outcome::kOnTime);
  m.record(Key{1, 0}, Outcome::kOnTime);
  m.record(Key{1, 0}, Outcome::kOnTime);  // 2 clean positions
  m.retire(Key{1, 0});
  // The purge's abandoned frames arrive as drops — all ignored.
  for (int i = 0; i < 8; ++i) m.record(Key{1, 0}, Outcome::kDropped);
  EXPECT_EQ(m.packets(Key{1, 0}), 3u);
  EXPECT_DOUBLE_EQ(m.scope_max_violation_rate(1), 0.0);
  EXPECT_DOUBLE_EQ(m.scope_aggregate_violation_rate(1), 0.0);
  // A sibling placement in the same scope keeps accruing normally.
  m.add_stream(Key{1, 1}, {0, 2});
  m.record(Key{1, 1}, Outcome::kDropped);
  m.record(Key{1, 1}, Outcome::kDropped);
  EXPECT_DOUBLE_EQ(m.scope_max_violation_rate(1), 1.0);
  EXPECT_DOUBLE_EQ(m.scope_aggregate_violation_rate(1), 1.0 / 3.0);
}

}  // namespace
}  // namespace nistream::dwcs
