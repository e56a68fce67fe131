// Tests for the measurement primitives: RunningStat, TimeSeries, RateMeter
// and UtilizationMeter. The two meters hold bounded state (a window
// of events, one busy sum per sample); the oracles below keep every event and
// every busy interval, as the meters once did, and the meters must match them
// exactly.
#include "sim/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <utility>
#include <vector>

#include "sim/random.hpp"

namespace nistream::sim {
namespace {

/// RateMeter as it was when it kept every event: a vector and a cursor past
/// the events behind the window, never popped.
class KeepEveryEventRateOracle {
 public:
  KeepEveryEventRateOracle(Time window, Time sample_every)
      : window_{window}, sample_every_{sample_every} {}

  void record(Time t, std::uint64_t bytes) {
    sample_up_to(t, /*inclusive=*/false);
    events_.emplace_back(t, bytes);
  }
  void finish(Time t) { sample_up_to(t, /*inclusive=*/true); }
  [[nodiscard]] const TimeSeries& series() const { return series_; }

 private:
  void sample_up_to(Time t, bool inclusive) {
    while (inclusive ? next_sample_ <= t : next_sample_ < t) {
      const Time lo = next_sample_ - window_;
      while (tail_ < events_.size() && events_[tail_].first <= lo) ++tail_;
      if (next_sample_ > Time::zero()) {
        std::uint64_t bytes = 0;
        for (std::size_t i = tail_; i < events_.size(); ++i) {
          if (events_[i].first > next_sample_) break;
          if (events_[i].first > lo) bytes += events_[i].second;
        }
        const double span = std::min(window_.to_sec(), next_sample_.to_sec());
        series_.add(next_sample_,
                    span > 0.0 ? static_cast<double>(bytes) * 8.0 / span : 0.0);
      }
      next_sample_ += sample_every_;
    }
  }

  Time window_;
  Time sample_every_;
  Time next_sample_ = Time::zero();
  std::vector<std::pair<Time, std::uint64_t>> events_;
  std::size_t tail_ = 0;
  TimeSeries series_;
};

/// UtilizationMeter as it was when it kept every busy interval (abutting
/// ones merged) and clipped them to each sample interval when sampled.
class IntervalUtilizationOracle {
 public:
  explicit IntervalUtilizationOracle(Time sample_every)
      : sample_every_{sample_every} {}

  void add_busy(Time start, Time end) {
    if (end <= start) return;
    if (!intervals_.empty() && intervals_.back().second == start) {
      intervals_.back().second = end;
    } else {
      intervals_.emplace_back(start, end);
    }
  }

  [[nodiscard]] TimeSeries sample(Time end, double capacity) const {
    TimeSeries out{"utilization"};
    std::size_t idx = 0;
    for (Time lo = Time::zero(); lo < end; lo += sample_every_) {
      const Time hi = std::min(lo + sample_every_, end);
      Time busy = Time::zero();
      while (idx < intervals_.size() && intervals_[idx].second <= lo) ++idx;
      for (std::size_t i = idx; i < intervals_.size(); ++i) {
        const auto& [s, e] = intervals_[i];
        if (s >= hi) break;
        busy += std::min(e, hi) - std::max(s, lo);
      }
      out.add(hi, 100.0 * (busy / (hi - lo)) / capacity);
    }
    return out;
  }

 private:
  Time sample_every_;
  std::vector<std::pair<Time, Time>> intervals_;
};

void expect_same_series(const TimeSeries& got, const TimeSeries& want,
                        std::uint64_t seed) {
  ASSERT_EQ(got.points().size(), want.points().size()) << "seed " << seed;
  for (std::size_t i = 0; i < want.points().size(); ++i) {
    EXPECT_EQ(got.points()[i].first, want.points()[i].first)
        << "seed " << seed << " point " << i;
    EXPECT_EQ(got.points()[i].second, want.points()[i].second)
        << "seed " << seed << " point " << i;
  }
}

TEST(RunningStat, BasicMoments) {
  RunningStat s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
}

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(TimeSeries, MeanBetweenAndValueAt) {
  TimeSeries ts{"bw"};
  ts.add(Time::ms(10), 100.0);
  ts.add(Time::ms(20), 200.0);
  ts.add(Time::ms(30), 300.0);
  EXPECT_DOUBLE_EQ(ts.mean_between(Time::ms(15), Time::ms(30)), 250.0);
  EXPECT_DOUBLE_EQ(ts.mean_between(Time::zero(), Time::ms(100)), 200.0);
  EXPECT_DOUBLE_EQ(ts.value_at(Time::ms(25)), 200.0);
  EXPECT_DOUBLE_EQ(ts.value_at(Time::ms(5)), 0.0);
}

TEST(TimeSeries, CsvFormat) {
  TimeSeries ts{"x"};
  ts.add(Time::ms(1), 5.0);
  std::ostringstream os;
  ts.write_csv(os, "bps");
  EXPECT_EQ(os.str(), "time_ms,bps\n1,5\n");
}

TEST(RateMeter, SteadyRate) {
  // 1000 bytes every 10 ms = 800 kbit/s.
  RateMeter rm{Time::ms(100), Time::ms(100)};
  for (int i = 0; i < 100; ++i) rm.record(Time::ms(10 * i), 1000);
  rm.finish(Time::sec(1));
  ASSERT_FALSE(rm.series().points().empty());
  // Skip the first window (ramp-in) and the final one (the stream stops at
  // t=990 ms, so the last window only holds 9 events); expect 800 kbps steady.
  const auto& pts = rm.series().points();
  ASSERT_GE(pts.size(), 3u);
  for (std::size_t i = 1; i + 1 < pts.size(); ++i) {
    EXPECT_NEAR(pts[i].second, 800e3, 1e3) << "at sample " << i;
  }
  EXPECT_EQ(rm.total_bytes(), 100'000u);
}

TEST(RateMeter, DropsToZeroWhenIdle) {
  RateMeter rm{Time::ms(50), Time::ms(50)};
  rm.record(Time::ms(10), 5000);
  rm.finish(Time::ms(500));
  const auto& pts = rm.series().points();
  ASSERT_GE(pts.size(), 3u);
  EXPECT_GT(pts.front().second, 0.0);
  EXPECT_DOUBLE_EQ(pts.back().second, 0.0);
}

TEST(RateMeter, MatchesAnOracleThatKeepsEveryEvent) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Rng rng{seed};
    // Windows shorter, equal to and longer than the sample period.
    const Time sample_every =
        Time::ms(static_cast<double>(50 + rng.below(451)));
    const Time window = Time::ms(static_cast<double>(20 + rng.below(2000)));
    RateMeter meter{window, sample_every};
    KeepEveryEventRateOracle oracle{window, sample_every};
    Time t = Time::zero();
    for (int i = 0; i < 4000; ++i) {
      // Bursts of same-instant events, 30 fps gaps, events landing exactly
      // on sample instants, and idle stretches longer than the window.
      switch (rng.below(8)) {
        case 0:
          break;
        case 1:
          t = sample_every * (t.raw_ns() / sample_every.raw_ns() + 1);
          break;
        case 2:
          t += Time::ms(static_cast<double>(rng.below(3000)));
          break;
        default:
          t += Time::us(static_cast<double>(rng.below(66'667)));
          break;
      }
      const std::uint64_t bytes = 1 + rng.below(3000);
      meter.record(t, bytes);
      oracle.record(t, bytes);
    }
    const Time end = t + Time::ms(static_cast<double>(rng.below(5000)));
    meter.finish(end);
    oracle.finish(end);
    expect_same_series(meter.series(), oracle.series(), seed);
  }
}

TEST(UtilizationMeter, MatchesAnIntervalOracle) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Rng rng{seed};
    const Time sample_every =
        Time::ms(static_cast<double>(1 + rng.below(100)));
    UtilizationMeter meter{sample_every};
    IntervalUtilizationOracle oracle{sample_every};
    Time t = Time::zero();
    for (int i = 0; i < 5000; ++i) {
      // Gaps, abutting slices, odd-ns edges and slices spanning several
      // sample intervals.
      const auto ns = [&rng](std::uint64_t below) {
        return Time::ns(static_cast<std::int64_t>(rng.below(below)));
      };
      if (rng.below(3) != 0) t += ns(20'000'000);
      const Time len = rng.below(10) == 0 ? ns(400'000'000) : ns(3'000'000);
      meter.add_busy(t, t + len);
      oracle.add_busy(t, t + len);
      t += len;
    }
    // Any end at or after the last slice, including one inside an interval.
    const Time end =
        t + Time::ns(static_cast<std::int64_t>(rng.below(250'000'000)));
    for (const double capacity : {1.0, 2.0}) {
      expect_same_series(meter.sample(end, capacity),
                         oracle.sample(end, capacity), seed);
      expect_same_series(meter.sample(t, capacity), oracle.sample(t, capacity),
                         seed);
    }
  }
}

TEST(UtilizationMeter, FullyBusyIs100Percent) {
  UtilizationMeter um{Time::ms(10)};
  um.add_busy(Time::zero(), Time::ms(100));
  auto ts = um.sample(Time::ms(100));
  ASSERT_EQ(ts.points().size(), 10u);
  for (const auto& [t, v] : ts.points()) EXPECT_DOUBLE_EQ(v, 100.0);
}

TEST(UtilizationMeter, HalfBusyIs50Percent) {
  UtilizationMeter um{Time::ms(10)};
  // Busy 5 ms of every 10 ms.
  for (int i = 0; i < 10; ++i) {
    um.add_busy(Time::ms(10 * i), Time::ms(10 * i + 5));
  }
  auto ts = um.sample(Time::ms(100));
  for (const auto& [t, v] : ts.points()) EXPECT_DOUBLE_EQ(v, 50.0);
  EXPECT_EQ(um.total_busy(), Time::ms(50));
}

TEST(UtilizationMeter, CapacityScalesMultiCpu) {
  UtilizationMeter um{Time::ms(10)};
  um.add_busy(Time::zero(), Time::ms(10));  // one CPU's worth
  auto ts = um.sample(Time::ms(10), /*capacity=*/2.0);
  ASSERT_EQ(ts.points().size(), 1u);
  EXPECT_DOUBLE_EQ(ts.points()[0].second, 50.0);  // half of a 2-CPU machine
}

TEST(UtilizationMeter, MergesContiguousIntervals) {
  UtilizationMeter um{Time::ms(10)};
  um.add_busy(Time::ms(0), Time::ms(3));
  um.add_busy(Time::ms(3), Time::ms(7));  // abuts previous
  auto ts = um.sample(Time::ms(10));
  ASSERT_EQ(ts.points().size(), 1u);
  EXPECT_DOUBLE_EQ(ts.points()[0].second, 70.0);
}

TEST(UtilizationMeter, BusySpanningBuckets) {
  UtilizationMeter um{Time::ms(10)};
  um.add_busy(Time::ms(5), Time::ms(15));
  auto ts = um.sample(Time::ms(20));
  ASSERT_EQ(ts.points().size(), 2u);
  EXPECT_DOUBLE_EQ(ts.points()[0].second, 50.0);
  EXPECT_DOUBLE_EQ(ts.points()[1].second, 50.0);
}

}  // namespace
}  // namespace nistream::sim
