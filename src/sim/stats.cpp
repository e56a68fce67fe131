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

RateMeter::RateMeter(Time window, Time sample_every, std::string name)
    : window_{window}, sample_every_{sample_every}, series_{std::move(name)} {
  assert(sample_every > Time::zero());
  // An event leaves the window at most ceil(window / sample_every) samples
  // after the next one.
  const std::int64_t step = sample_every.raw_ns();
  const std::int64_t ahead =
      window > Time::zero() ? (window.raw_ns() + step - 1) / step : 0;
  leaving_.assign(static_cast<std::size_t>(ahead) + 1, 0);
}

void RateMeter::record(Time t, std::uint64_t bytes) {
  sample_up_to(t, /*inclusive=*/false);
  total_ += bytes;
  if (window_ <= Time::zero()) return;
  // The next sample is at or after t, so it is the first to read these
  // bytes; the first sample at or after t + window is the first that does
  // not.
  const auto leaves = static_cast<std::uint64_t>(
      ((t + window_).raw_ns() + sample_every_.raw_ns() - 1) /
      sample_every_.raw_ns());
  if (leaves <= next_index_) return;  // gone before the next sample
  in_window_ += bytes;
  leaving_[leaves % leaving_.size()] += bytes;
}

void RateMeter::sample_up_to(Time t, bool inclusive) {
  while (inclusive ? next_sample_ <= t : next_sample_ < t) {
    std::uint64_t& left = leaving_[next_index_ % leaving_.size()];
    in_window_ -= left;
    left = 0;
    if (next_sample_ > Time::zero()) {
      const double span = std::min(window_.to_sec(), next_sample_.to_sec());
      series_.add(next_sample_,
                  span > 0.0 ? static_cast<double>(in_window_) * 8.0 / span
                             : 0.0);
    }
    next_sample_ += sample_every_;
    ++next_index_;
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
