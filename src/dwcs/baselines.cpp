#include "dwcs/baselines.hpp"

#include <cassert>

namespace nistream::dwcs {

// The StreamTable base stores only the address of views_, valid before the
// member is constructed; no element is read until streams exist.
BaselineScheduler::BaselineScheduler(std::size_t ring_capacity)
    : StreamTable{views_},
      comparator_{ArithMode::kFixedPoint, null_cost_hook()},
      rings_{ring_capacity, DescriptorResidency::kPinnedMemory,
             /*base=*/0x0300'0000, /*stride=*/0x10000, null_cost_hook()} {}

BaselineScheduler::BaselineScheduler(PolicyKind policy,
                                     std::size_t ring_capacity)
    : StreamTable{views_},
      comparator_{ArithMode::kFixedPoint, null_cost_hook()},
      rings_{ring_capacity, DescriptorResidency::kPinnedMemory,
             /*base=*/0x0300'0000, /*stride=*/0x10000, null_cost_hook()},
      repr_{make_repr(ReprKind::kPifo, *this, comparator_, null_cost_hook(),
                      /*heap_base=*/0x0380'0000, {}, policy)} {}

StreamId BaselineScheduler::create_stream(const StreamParams& params,
                                          sim::Time now) {
  const auto id = static_cast<StreamId>(streams_.size());
  StreamState s;
  s.params = params;
  [[maybe_unused]] const auto ring = rings_.add();
  assert(ring == id);
  StreamView v;
  v.current = params.tolerance;  // static for baselines: no window adjustments
  v.next_deadline = now + params.period;
  streams_.push_back(std::move(s));
  views_.push_back(v);
  return id;
}

bool BaselineScheduler::enqueue(StreamId id, const FrameDescriptor& frame,
                                sim::Time now) {
  assert(id < streams_.size());
  StreamState& s = streams_[id];
  const bool was_empty = rings_.empty(id);
  if (!rings_.push(id, frame)) return false;
  ++s.stats.enqueued;
  if (was_empty) {
    StreamView& v = views_[id];
    v.head_enqueued_at = frame.enqueued_at;
    if (v.next_deadline < now) {
      v.next_deadline = now + s.params.period;  // restart after idle
    }
    s.has_backlog = true;
    if (repr_) repr_->insert(id);
  }
  return true;
}

void BaselineScheduler::drop_late_lossy(sim::Time now) {
  for (StreamId id = 0; id < streams_.size(); ++id) {
    StreamState& s = streams_[id];
    if (!s.params.lossy) continue;
    StreamView& v = views_[id];
    bool mutated = false;
    while (!rings_.empty(id) && v.next_deadline < now) {
      rings_.pop(id);
      ++s.stats.dropped;
      v.next_deadline += s.params.period;
      mutated = true;
    }
    if (!mutated) continue;
    if (rings_.empty(id)) {
      s.has_backlog = false;
      if (repr_) repr_->remove(id);
    } else {
      if (const auto head = rings_.front(id)) {
        v.head_enqueued_at = head->enqueued_at;
      }
      if (repr_) repr_->update(id);
    }
  }
}

std::optional<StreamId> BaselineScheduler::pick(sim::Time) {
  assert(repr_ && "engine-less baselines must override pick()");
  return repr_->pick();
}

std::optional<Dispatch> BaselineScheduler::schedule_next(sim::Time now) {
  drop_late_lossy(now);
  const auto sid = pick(now);
  if (!sid) return std::nullopt;
  StreamState& s = streams_[*sid];
  StreamView& v = views_[*sid];
  const auto head = rings_.front(*sid);
  assert(head.has_value());
  rings_.pop(*sid);
  if (repr_) repr_->on_charge(*sid);

  Dispatch d;
  d.stream = *sid;
  d.frame = *head;
  d.deadline = v.next_deadline;
  d.late = v.next_deadline < now;
  if (d.late) {
    ++s.stats.serviced_late;
  } else {
    ++s.stats.serviced_on_time;
  }
  s.stats.bytes_sent += head->bytes;
  v.next_deadline += s.params.period;
  if (rings_.empty(*sid)) {
    s.has_backlog = false;
    if (repr_) repr_->remove(*sid);
  } else {
    if (const auto next_head = rings_.front(*sid)) {
      v.head_enqueued_at = next_head->enqueued_at;
    }
    if (repr_) repr_->update(*sid);
  }
  return d;
}

std::optional<StreamId> RoundRobinScheduler::pick(sim::Time) {
  const auto n = static_cast<StreamId>(streams().size());
  if (n == 0) return std::nullopt;
  for (StreamId k = 0; k < n; ++k) {
    const StreamId i = static_cast<StreamId>((cursor_ + k) % n);
    if (backlog(i) != 0) {
      cursor_ = static_cast<StreamId>((i + 1) % n);
      return i;
    }
  }
  return std::nullopt;
}

}  // namespace nistream::dwcs
