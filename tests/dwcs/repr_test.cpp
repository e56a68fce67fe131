// Representation-equivalence property tests.
//
// All attribute-aware representations (dual-heap, sorted-list,
// calendar-queue, hierarchical) must produce the *identical dispatch
// sequence* for any workload — they are interchangeable data structures
// under one scheduling policy (§3.1.1). The reference trace is the single
// full-order heap: the PIFO engine under the DWCS rank. FCFS is checked
// separately for its own ordering.
#include "dwcs/repr.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "dwcs/scheduler.hpp"
#include "sim/random.hpp"

namespace nistream::dwcs {

// gtest prints each parameter into its test's listed name. Without a printer
// a ReprKind prints as its bytes, so renumbering the enum renamed tests.
void PrintTo(ReprKind kind, std::ostream* os) { *os << to_string(kind); }

namespace {

using sim::Time;

struct Event {
  StreamId stream;
  std::uint64_t frame_id;
  bool late;
  bool operator==(const Event&) const = default;
};

/// Replays a deterministic random workload through a scheduler with the
/// given representation and returns the dispatch trace.
std::vector<Event> run_workload(ReprKind kind, std::uint64_t seed,
                                int n_streams, int horizon_ms) {
  DwcsScheduler::Config cfg;
  cfg.repr = kind;
  DwcsScheduler s{cfg};
  sim::Rng rng{seed};
  std::vector<StreamId> ids;
  std::vector<int> periods;
  for (int i = 0; i < n_streams; ++i) {
    const auto y = 2 + static_cast<std::int64_t>(rng.below(6));
    const auto x = static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(y)));
    const int period = 10 * (1 + static_cast<int>(rng.below(4)));
    ids.push_back(s.create_stream({.tolerance = {x, y},
                                   .period = Time::ms(period),
                                   .lossy = rng.chance(0.7)},
                                  Time::zero()));
    periods.push_back(period);
  }
  std::vector<Event> trace;
  std::uint64_t fid = 0;
  for (int t = 0; t <= horizon_ms; t += 5) {
    for (int i = 0; i < n_streams; ++i) {
      if (t % periods[static_cast<std::size_t>(i)] == 0) {
        s.enqueue(ids[static_cast<std::size_t>(i)],
                  FrameDescriptor{.frame_id = fid++, .bytes = 1000,
                                  .type = mpeg::FrameType::kP,
                                  .enqueued_at = Time::ms(t)},
                  Time::ms(t));
      }
    }
    // Service at ~80% of aggregate demand so overload paths also run.
    if (t % 10 == 0) {
      for (int k = 0; k < n_streams / 2 + 1; ++k) {
        if (const auto d = s.schedule_next(Time::ms(t))) {
          trace.push_back({d->stream, d->frame.frame_id, d->late});
        }
      }
    }
  }
  return trace;
}

class ReprEquivalence : public ::testing::TestWithParam<ReprKind> {};

TEST_P(ReprEquivalence, MatchesSingleHeapTrace) {
  for (std::uint64_t seed : {11u, 22u, 33u, 44u}) {
    const auto reference =
        run_workload(ReprKind::kPifo, seed, /*n_streams=*/6,
                     /*horizon_ms=*/3000);
    const auto got = run_workload(GetParam(), seed, 6, 3000);
    ASSERT_EQ(got.size(), reference.size()) << "seed " << seed;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], reference[i])
          << "seed " << seed << " dispatch #" << i << " repr "
          << to_string(GetParam());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, ReprEquivalence,
                         ::testing::Values(ReprKind::kDualHeap,
                                           ReprKind::kSortedList,
                                           ReprKind::kCalendarQueue,
                                           ReprKind::kHierarchical),
                         [](const auto& param_info) {
                           std::string n{to_string(param_info.param)};
                           std::replace(n.begin(), n.end(), '-', '_');
                           return n;
                         });

TEST(ReprFcfs, ServesInHeadArrivalOrder) {
  DwcsScheduler::Config cfg;
  cfg.repr = ReprKind::kFcfs;
  DwcsScheduler s{cfg};
  // Stream b's packet arrives first even though stream a is more urgent.
  const auto a = s.create_stream({.tolerance = {0, 4}, .period = Time::ms(5)},
                                 Time::zero());
  const auto b = s.create_stream({.tolerance = {3, 4}, .period = Time::ms(50)},
                                 Time::zero());
  s.enqueue(b, FrameDescriptor{.frame_id = 1, .bytes = 100,
                               .type = mpeg::FrameType::kI,
                               .enqueued_at = Time::ms(1)},
            Time::ms(1));
  s.enqueue(a, FrameDescriptor{.frame_id = 2, .bytes = 100,
                               .type = mpeg::FrameType::kI,
                               .enqueued_at = Time::ms(2)},
            Time::ms(2));
  const auto first = s.schedule_next(Time::ms(3));
  ASSERT_TRUE(first);
  EXPECT_EQ(first->stream, b);  // FCFS ignores urgency
}

TEST(ReprNames, AreStable) {
  EXPECT_STREQ(to_string(ReprKind::kDualHeap), "dual-heap");
  EXPECT_STREQ(to_string(ReprKind::kSortedList), "sorted-list");
  EXPECT_STREQ(to_string(ReprKind::kFcfs), "fcfs");
  EXPECT_STREQ(to_string(ReprKind::kCalendarQueue), "calendar-queue");
  EXPECT_STREQ(to_string(ReprKind::kHierarchical), "hierarchical");
  EXPECT_STREQ(to_string(ReprKind::kPifo), "pifo");
}

}  // namespace
}  // namespace nistream::dwcs
