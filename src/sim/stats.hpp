// Measurement primitives shared by all experiments.
//
// The paper reports four kinds of data: cumulative/average latencies
// (Tables 1–5), time series of bandwidth (Figures 7, 9), per-frame queuing
// delays (Figures 8, 10) and sampled CPU utilization (Figure 6). The classes
// here back those directly; the Figure 8/10 experiments keep their per-frame
// series themselves (apps/experiments.cpp), as a plain vector.
//
// The two meters sit on the per-frame and per-CPU-slice paths of runs that
// last as long as their clients watch, so their state is bounded by what
// their readers need, not by the frames or slices seen: a RateMeter holds one
// byte sum per sample period its window spans, a UtilizationMeter one busy
// sum per sample period. What still grows with run length is the output
// series, one point per sample period.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace nistream::sim {

/// Streaming mean/min/max/variance (Welford). Cheap enough to keep everywhere.
class RunningStat {
 public:
  void add(double x) {
    ++n_;
    const double d = x - mean_;
    mean_ += d / static_cast<double>(n_);
    m2_ += d * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const { return std::sqrt(variance()); }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0, m2_ = 0.0, sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// (time, value) series, e.g. bandwidth-vs-time for Figures 7 and 9.
class TimeSeries {
 public:
  explicit TimeSeries(std::string name = {}) : name_{std::move(name)} {}

  void add(Time t, double v) { points_.emplace_back(t, v); }
  [[nodiscard]] const std::vector<std::pair<Time, double>>& points() const {
    return points_;
  }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool empty() const { return points_.empty(); }

  /// Mean of values with t in [from, to].
  [[nodiscard]] double mean_between(Time from, Time to) const;
  /// Last value at or before t (0 if none).
  [[nodiscard]] double value_at(Time t) const;

  /// Write "t_ms,value" rows. Used by the figure benches to emit data that
  /// plots directly against the paper's figures.
  void write_csv(std::ostream& os, const std::string& value_label) const;

 private:
  std::string name_;
  std::vector<std::pair<Time, double>> points_;
};

/// Sliding-window throughput estimator producing a bandwidth time series in
/// bits/second — the y-axis of Figures 7 and 9. The sample at s reads the
/// bytes recorded in (s - window, s]. Bytes recorded at t count toward every
/// sample from the next one up to, not including, the first at or after
/// t + window, so the meter keeps the byte sum the next sample reads and, for
/// each of the ceil(window / sample_every) samples after it, the bytes that
/// leave the window there. Its state is fixed at construction, whatever the
/// event rate.
class RateMeter {
 public:
  /// `window`: averaging window; `sample_every`: series granularity (> 0).
  RateMeter(Time window, Time sample_every, std::string name = {});

  /// Record `bytes` delivered at time `t`. Calls must be time-ordered.
  void record(Time t, std::uint64_t bytes);

  /// Flush pending samples up to time `t` (call at end of run).
  void finish(Time t) { sample_up_to(t, /*inclusive=*/true); }

  [[nodiscard]] const TimeSeries& series() const { return series_; }
  [[nodiscard]] std::uint64_t total_bytes() const { return total_; }

 private:
  /// Emit series samples due before `t` (or at `t` when `inclusive`). An
  /// event recorded exactly at a sample instant counts toward that sample:
  /// record() uses exclusive flushing so the event lands first.
  void sample_up_to(Time t, bool inclusive);

  Time window_;
  Time sample_every_;
  Time next_sample_ = Time::zero();
  std::uint64_t next_index_ = 0;  // next_sample_ / sample_every_
  std::uint64_t total_ = 0;
  std::uint64_t in_window_ = 0;   // bytes the next sample reads
  /// leaving_[k % size]: bytes that leave the window at sample k.
  std::vector<std::uint64_t> leaving_;
  TimeSeries series_;
};

/// Busy-time integrator behind the Figure 6 "perfmeter": record busy
/// slices, then sample utilization over fixed intervals.
class UtilizationMeter {
 public:
  explicit UtilizationMeter(Time sample_every) : sample_every_{sample_every} {}

  /// Record the busy slice [start, end). Slices must arrive in time order
  /// and must not overlap. Each is credited, in whole nanoseconds, to the
  /// sample intervals it overlaps.
  void add_busy(Time start, Time end);

  /// Produce the utilization series up to `end`, as percent of `capacity`
  /// (capacity = number of CPUs for a whole-machine meter). `end` must be at
  /// or after the end of the last recorded slice: an interval cut short by
  /// `end` reads its whole busy sum.
  [[nodiscard]] TimeSeries sample(Time end, double capacity = 1.0) const;

  [[nodiscard]] Time total_busy() const { return total_busy_; }

 private:
  Time sample_every_;
  Time total_busy_ = Time::zero();
  Time last_end_ = Time::zero();       // end of the latest recorded slice
  std::vector<std::int64_t> busy_ns_;  // busy ns per sample interval
};

}  // namespace nistream::sim
