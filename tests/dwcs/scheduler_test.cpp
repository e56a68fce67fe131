// Behavioural tests of the DWCS scheduler: precedence, window adjustments,
// late-packet handling, lossy vs loss-intolerant streams, deadline grids,
// and the window-constraint service guarantee (property-checked against the
// sliding-window monitor).
#include "dwcs/scheduler.hpp"

#include <gtest/gtest.h>

#include "dwcs/monitor.hpp"
#include "sim/random.hpp"

namespace nistream::dwcs {
namespace {

using sim::Time;

FrameDescriptor frame(std::uint64_t id, Time at, std::uint32_t bytes = 1000) {
  return FrameDescriptor{.frame_id = id, .bytes = bytes,
                         .type = mpeg::FrameType::kP, .enqueued_at = at};
}

DwcsScheduler::Config config() { return DwcsScheduler::Config{}; }

TEST(Dwcs, EmptySchedulerReturnsNothing) {
  DwcsScheduler s{config()};
  EXPECT_FALSE(s.schedule_next(Time::zero()).has_value());
}

TEST(Dwcs, SingleStreamFifo) {
  DwcsScheduler s{config()};
  const auto id = s.create_stream({.tolerance = {1, 2}, .period = Time::ms(10)},
                                  Time::zero());
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(s.enqueue(id, frame(i, Time::zero()), Time::zero()));
  }
  for (std::uint64_t i = 0; i < 4; ++i) {
    const auto d = s.schedule_next(Time::zero());
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->stream, id);
    EXPECT_EQ(d->frame.frame_id, i);
    EXPECT_FALSE(d->late);
  }
  EXPECT_FALSE(s.schedule_next(Time::zero()).has_value());
  EXPECT_EQ(s.stats(id).serviced_on_time, 4u);
}

TEST(Dwcs, EarlierDeadlineStreamServedFirst) {
  DwcsScheduler s{config()};
  const auto slow = s.create_stream({.tolerance = {1, 2}, .period = Time::ms(40)},
                                    Time::zero());
  const auto fast = s.create_stream({.tolerance = {1, 2}, .period = Time::ms(10)},
                                    Time::zero());
  s.enqueue(slow, frame(100, Time::zero()), Time::zero());
  s.enqueue(fast, frame(200, Time::zero()), Time::zero());
  const auto d = s.schedule_next(Time::zero());
  ASSERT_TRUE(d);
  EXPECT_EQ(d->stream, fast);  // deadline at 10 ms beats 40 ms
}

TEST(Dwcs, ToleranceBreaksDeadlineTies) {
  DwcsScheduler s{config()};
  const auto loose = s.create_stream({.tolerance = {3, 4}, .period = Time::ms(10)},
                                     Time::zero());
  const auto tight = s.create_stream({.tolerance = {1, 4}, .period = Time::ms(10)},
                                     Time::zero());
  s.enqueue(loose, frame(1, Time::zero()), Time::zero());
  s.enqueue(tight, frame(2, Time::zero()), Time::zero());
  const auto d = s.schedule_next(Time::zero());
  ASSERT_TRUE(d);
  EXPECT_EQ(d->stream, tight);  // lower W' first (rule 2)
}

TEST(Dwcs, RuleAWindowResetAfterOnTimeServices) {
  // x/y = 2/4: the window completes after y-x = 2 on-time services.
  DwcsScheduler s{config()};
  const auto id = s.create_stream({.tolerance = {2, 4}, .period = Time::ms(10)},
                                  Time::zero());
  for (std::uint64_t i = 0; i < 2; ++i) {
    s.enqueue(id, frame(i, Time::zero()), Time::zero());
  }
  ASSERT_TRUE(s.schedule_next(Time::zero()));
  EXPECT_EQ(s.stream_view(id).current, (WindowConstraint{2, 3}));
  ASSERT_TRUE(s.schedule_next(Time::zero()));
  // y' fell to x' (2): reset to the original 2/4.
  EXPECT_EQ(s.stream_view(id).current, (WindowConstraint{2, 4}));
}

TEST(Dwcs, RuleBLossDecrementsBothAndViolationGrowsY) {
  DwcsScheduler s{config()};
  const auto id = s.create_stream(
      {.tolerance = {1, 3}, .period = Time::ms(10), .lossy = true},
      Time::zero());
  // Let two consecutive packets miss their deadlines.
  s.enqueue(id, frame(0, Time::zero()), Time::zero());
  s.enqueue(id, frame(1, Time::zero()), Time::zero());
  s.enqueue(id, frame(2, Time::zero()), Time::zero());
  // now = 25ms: deadline 10ms missed -> drop, x'/y' = 0/2; deadline 20ms also
  // missed -> violation (x'=0): y' grows to 3, violations = 1. The surviving
  // frame is then serviced on time, so rule (A) shrinks y' back to 2.
  const auto d = s.schedule_next(Time::ms(25));
  ASSERT_TRUE(d);
  EXPECT_EQ(s.stats(id).dropped, 2u);
  EXPECT_EQ(s.stats(id).violations, 1u);
  EXPECT_EQ(s.stream_view(id).current, (WindowConstraint{0, 2}));
  EXPECT_EQ(d->frame.frame_id, 2u);  // survivor transmitted on time
  EXPECT_FALSE(d->late);
}

TEST(Dwcs, LossyLatePacketsAreDroppedNotSent) {
  DwcsScheduler s{config()};
  const auto id = s.create_stream(
      {.tolerance = {2, 4}, .period = Time::ms(10), .lossy = true},
      Time::zero());
  s.enqueue(id, frame(0, Time::zero()), Time::zero());
  // Far past the deadline: the packet must be dropped, and with nothing else
  // queued the scheduler returns nothing.
  const auto d = s.schedule_next(Time::ms(100));
  EXPECT_FALSE(d.has_value());
  EXPECT_EQ(s.stats(id).dropped, 1u);
  EXPECT_EQ(s.stats(id).bytes_sent, 0u);
}

TEST(Dwcs, LossIntolerantLatePacketsAreSentLate) {
  DwcsScheduler s{config()};
  const auto id = s.create_stream(
      {.tolerance = {2, 4}, .period = Time::ms(10), .lossy = false},
      Time::zero());
  s.enqueue(id, frame(0, Time::zero()), Time::zero());
  const auto d = s.schedule_next(Time::ms(100));
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->late);
  EXPECT_EQ(s.stats(id).serviced_late, 1u);
  EXPECT_EQ(s.stats(id).dropped, 0u);
  // The miss still consumed window tolerance (rule B).
  EXPECT_EQ(s.stream_view(id).current, (WindowConstraint{1, 3}));
}

TEST(Dwcs, DeadlineAdvancesByPeriodPerService) {
  DwcsScheduler s{config()};
  const auto id = s.create_stream({.tolerance = {1, 2}, .period = Time::ms(10)},
                                  Time::zero());
  for (std::uint64_t i = 0; i < 3; ++i) {
    s.enqueue(id, frame(i, Time::zero()), Time::zero());
  }
  EXPECT_EQ(s.stream_view(id).next_deadline, Time::ms(10));
  s.schedule_next(Time::zero());
  EXPECT_EQ(s.stream_view(id).next_deadline, Time::ms(20));
  s.schedule_next(Time::ms(5));
  EXPECT_EQ(s.stream_view(id).next_deadline, Time::ms(30));
}

TEST(Dwcs, IdleStreamDeadlineRestartsOnArrival) {
  DwcsScheduler s{config()};
  const auto id = s.create_stream({.tolerance = {1, 2}, .period = Time::ms(10)},
                                  Time::zero());
  // Nothing enqueued until t = 500 ms, far past the initial 10 ms deadline.
  s.enqueue(id, frame(0, Time::ms(500)), Time::ms(500));
  EXPECT_EQ(s.stream_view(id).next_deadline, Time::ms(510));
  const auto d = s.schedule_next(Time::ms(500));
  ASSERT_TRUE(d);
  EXPECT_FALSE(d->late);
  EXPECT_EQ(s.stats(id).dropped, 0u);  // the idle gap is not charged
}

TEST(Dwcs, RingFullRejectsEnqueue) {
  auto cfg = config();
  cfg.ring_capacity = 2;
  DwcsScheduler s{cfg};
  const auto id = s.create_stream({.tolerance = {1, 2}, .period = Time::ms(10)},
                                  Time::zero());
  EXPECT_TRUE(s.enqueue(id, frame(0, Time::zero()), Time::zero()));
  EXPECT_TRUE(s.enqueue(id, frame(1, Time::zero()), Time::zero()));
  EXPECT_FALSE(s.enqueue(id, frame(2, Time::zero()), Time::zero()));
  EXPECT_EQ(s.stats(id).enqueued, 2u);
}

TEST(Dwcs, BandwidthSharedByToleranceUnderOverload) {
  // Two equal-rate streams, 90% aggregate service capacity: the stream with
  // the tighter loss-tolerance (3/8, needs 62.5% of its packets on time)
  // must receive far more on-time service than the loose one (7/8, needs
  // 12.5%). DWCS converges on ~75% / ~15%.
  DwcsScheduler s{config()};
  const auto tight = s.create_stream(
      {.tolerance = {3, 8}, .period = Time::ms(10), .lossy = true},
      Time::zero());
  const auto loose = s.create_stream(
      {.tolerance = {7, 8}, .period = Time::ms(10), .lossy = true},
      Time::zero());
  std::uint64_t fid = 0;
  for (int t = 0; t < 20000; t += 10) {
    s.enqueue(tight, frame(fid++, Time::ms(t)), Time::ms(t));
    s.enqueue(loose, frame(fid++, Time::ms(t)), Time::ms(t));
    if (t % 100 < 90) (void)s.schedule_next(Time::ms(t));
  }
  EXPECT_GT(s.stats(tight).serviced_on_time,
            4 * s.stats(loose).serviced_on_time);
  EXPECT_EQ(s.total_violations(), 0u);
}

// ---- Property: the window-constraint guarantee under feasible load --------

TEST(DwcsProperty, NoViolationsWhenCapacityIsSufficient) {
  // Streams with loss-tolerance x/y only need (y-x)/y of their packets served
  // on time. Build a load where aggregate on-time demand is well under
  // capacity; DWCS must produce zero violating windows.
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    DwcsScheduler s{config()};
    WindowViolationMonitor monitor;
    sim::Rng rng{seed};
    struct Spec {
      StreamId id;
      std::uint64_t next_frame = 0;
    };
    std::vector<Spec> specs;
    // 4 streams, period 40 ms each => aggregate 100 packets/s; the service
    // loop runs every 5 ms => 200 decisions/s. Plenty of slack.
    for (int i = 0; i < 4; ++i) {
      const auto y = 2 + static_cast<std::int64_t>(rng.below(6));
      const auto x = static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(y)));
      const WindowConstraint c{x, y};
      const auto id = s.create_stream(
          {.tolerance = c, .period = Time::ms(40), .lossy = true},
          Time::zero());
      monitor.add_stream(c);
      specs.push_back({id});
    }
    std::vector<std::uint64_t> outcome_cursor(specs.size(), 0);
    for (int t = 0; t < 20000; t += 5) {
      if (t % 40 == 0) {
        for (auto& sp : specs) {
          s.enqueue(sp.id, frame(sp.next_frame++, Time::ms(t)), Time::ms(t));
        }
      }
      const auto before_drops = [&](StreamId id) { return s.stats(id).dropped; };
      std::vector<std::uint64_t> drops;
      for (const auto& sp : specs) drops.push_back(before_drops(sp.id));
      const auto d = s.schedule_next(Time::ms(t));
      // Feed the monitor in per-stream packet order: drops first, then the
      // dispatched packet.
      for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto now_drops = s.stats(specs[i].id).dropped;
        for (std::uint64_t k = drops[i]; k < now_drops; ++k) {
          monitor.record(specs[i].id, WindowViolationMonitor::Outcome::kDropped);
        }
      }
      if (d) {
        monitor.record(d->stream,
                       d->late ? WindowViolationMonitor::Outcome::kLate
                               : WindowViolationMonitor::Outcome::kOnTime);
      }
    }
    EXPECT_EQ(monitor.total_violating_windows(), 0u) << "seed " << seed;
    EXPECT_EQ(s.total_violations(), 0u) << "seed " << seed;
  }
}

TEST(DwcsProperty, ViolationCounterMatchesZeroToleranceMisses) {
  // With x = 0 (no losses tolerated) and an impossible load, every drop is a
  // violation; the internal counter must agree.
  DwcsScheduler s{config()};
  const auto id = s.create_stream(
      {.tolerance = {0, 4}, .period = Time::ms(10), .lossy = true},
      Time::zero());
  for (std::uint64_t i = 0; i < 10; ++i) {
    s.enqueue(id, frame(i, Time::zero()), Time::zero());
  }
  // Jump far ahead: every queued packet is late.
  (void)s.schedule_next(Time::ms(500));
  EXPECT_EQ(s.stats(id).dropped, 10u);
  EXPECT_EQ(s.stats(id).violations, 10u);
}

TEST(Dwcs, StatsAccounting) {
  DwcsScheduler s{config()};
  const auto id = s.create_stream({.tolerance = {1, 2}, .period = Time::ms(10)},
                                  Time::zero());
  s.enqueue(id, frame(0, Time::zero(), 1500), Time::zero());
  s.enqueue(id, frame(1, Time::zero(), 2500), Time::zero());
  s.schedule_next(Time::zero());
  s.schedule_next(Time::zero());
  const auto& st = s.stats(id);
  EXPECT_EQ(st.enqueued, 2u);
  EXPECT_EQ(st.serviced_on_time, 2u);
  EXPECT_EQ(st.bytes_sent, 4000u);
  EXPECT_EQ(st.losses(), 0u);
  EXPECT_EQ(s.decisions(), 2u);
}

}  // namespace
}  // namespace nistream::dwcs
