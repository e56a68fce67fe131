#include "sim/stats.hpp"

#include <cassert>

namespace nistream::sim {

double TimeSeries::mean_between(Time from, Time to) const {
  double sum = 0.0;
  std::uint64_t n = 0;
  for (const auto& [t, v] : points_) {
    if (t < from || t > to) continue;
    sum += v;
    ++n;
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

double TimeSeries::value_at(Time t) const {
  double last = 0.0;
  for (const auto& [pt, v] : points_) {
    if (pt > t) break;
    last = v;
  }
  return last;
}

void TimeSeries::write_csv(std::ostream& os, const std::string& value_label) const {
  os << "time_ms," << value_label << "\n";
  for (const auto& [t, v] : points_) os << t.to_ms() << "," << v << "\n";
}

void RateMeter::record(Time t, std::uint64_t bytes) {
  sample_up_to(t, /*inclusive=*/false);
  events_.push_back({t, bytes});
  total_ += bytes;
}

double RateMeter::current_bps(Time t) const {
  // Sum bytes inside (t - window, t]; sample_up_to has popped every event at
  // or before t - window.
  std::uint64_t bytes = 0;
  for (const auto& [at, b] : events_) {
    if (at > t) break;
    bytes += b;
  }
  const double span = std::min(window_.to_sec(), t.to_sec());
  return span > 0.0 ? static_cast<double>(bytes) * 8.0 / span : 0.0;
}

void RateMeter::sample_up_to(Time t, bool inclusive) {
  while (inclusive ? next_sample_ <= t : next_sample_ < t) {
    // Pop events that have fallen out of the window for this sample point;
    // sample points only advance, so no later sample reads them.
    const Time lo = next_sample_ - window_;
    while (!events_.empty() && events_.front().first <= lo) {
      events_.pop_front();
    }
    if (next_sample_ > Time::zero()) {
      series_.add(next_sample_, current_bps(next_sample_));
    }
    next_sample_ += sample_every_;
  }
}

void UtilizationMeter::add_busy(Time start, Time end) {
  if (end <= start) return;
  assert(start >= last_end_);
  total_busy_ += end - start;
  last_end_ = end;
  if (sample_every_ <= Time::zero()) return;
  // Split the slice at interval edges. Integer ns sums are exact, so each
  // interval reads the same busy time as clipping every slice to it would.
  const std::int64_t width = sample_every_.raw_ns();
  for (std::int64_t lo = start.raw_ns(); lo < end.raw_ns();) {
    const std::int64_t idx = lo / width;
    const std::int64_t hi = std::min(end.raw_ns(), (idx + 1) * width);
    const auto i = static_cast<std::size_t>(idx);
    if (i >= busy_ns_.size()) busy_ns_.resize(i + 1, 0);
    busy_ns_[i] += hi - lo;
    lo = hi;
  }
}

TimeSeries UtilizationMeter::sample(Time end, double capacity) const {
  TimeSeries out{"utilization"};
  if (sample_every_ <= Time::zero()) return out;
  assert(end >= last_end_);
  std::size_t i = 0;
  for (Time lo = Time::zero(); lo < end; lo += sample_every_, ++i) {
    const Time hi = std::min(lo + sample_every_, end);
    const Time busy = Time::ns(i < busy_ns_.size() ? busy_ns_[i] : 0);
    const double util = 100.0 * (busy / (hi - lo)) / capacity;
    out.add(hi, util);
  }
  return out;
}

}  // namespace nistream::sim
