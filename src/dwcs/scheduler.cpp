#include "dwcs/scheduler.hpp"

#include <cassert>

namespace nistream::dwcs {

DwcsScheduler::DwcsScheduler(Config config, CostHook& hook)
    // The StreamTable base stores only the address of views_, which is valid
    // before the member is constructed; no element is read until streams
    // exist.
    : StreamTable{views_},
      config_{config},
      hook_{&hook},
      charged_{hook.accounted()},
      comparator_{config.arith, hook},
      rings_{config.ring_capacity, config.residency, /*base=*/0x0200'0000,
             /*stride=*/0x10000, hook},  // rings 64 KB apart in card memory
      repr_{make_repr(config.repr, *this, comparator_, hook,
                      /*heap_base=*/0x0100'0000, config.hierarchical,
                      config.policy)} {}

const StreamParams& DwcsScheduler::stream_params(StreamId id) const {
  assert(id < streams_.size());
  return streams_[id].params;
}

const StreamStats& DwcsScheduler::stats(StreamId id) const {
  assert(id < streams_.size());
  return streams_[id].stats;
}

std::size_t DwcsScheduler::backlog(StreamId id) const {
  assert(id < streams_.size());
  return rings_.size(id);
}

StreamId DwcsScheduler::create_stream(const StreamParams& params,
                                      sim::Time now) {
  assert(params.tolerance.valid());
  assert(params.period > sim::Time::zero());
  const auto id = static_cast<StreamId>(streams_.size());
  StreamState s;
  s.params = params;
  StreamView v;
  v.current = params.tolerance;
  v.next_deadline = now + params.period;
  [[maybe_unused]] const auto ring = rings_.add();
  assert(ring == id);
  streams_.push_back(std::move(s));
  views_.push_back(v);
  return id;
}

bool DwcsScheduler::enqueue(StreamId id, const FrameDescriptor& frame,
                            sim::Time now) {
  assert(id < streams_.size());
  StreamState& s = streams_[id];
  const bool was_empty = rings_.empty(id);
  if (!rings_.push(id, frame)) return false;
  ++s.stats.enqueued;
  if (was_empty) {
    StreamView& v = views_[id];
    v.head_enqueued_at = frame.enqueued_at;
    s.has_backlog = true;
    if (config_.reset_deadline_on_idle && v.next_deadline < now) {
      // The stream idled past its grid; restart rather than charging the
      // idle gap as a burst of losses.
      v.next_deadline = now + s.params.period;
    }
    repr_->insert(id);
  }
  check_backlog(id);
  return true;
}

void DwcsScheduler::adjust_serviced(StreamView& v,
                                    const WindowConstraint& orig) {
  // Rule (A): on-time service.
  auto& cur = v.current;
  if (charged_) hook_->arith_int(Op::kCmp, 1);
  if (cur.y > cur.x) {
    if (charged_) hook_->arith_int(Op::kAdd, 1);
    --cur.y;
  }
  if (charged_) hook_->arith_int(Op::kCmp, 1);
  if (cur.y == cur.x) {
    cur = orig;  // window complete: y-x on-time services happened
  }
}

void DwcsScheduler::adjust_lost(StreamView& v, const WindowConstraint& orig,
                                StreamStats& stats) {
  // Rule (B): head packet lost or late.
  auto& cur = v.current;
  if (charged_) hook_->arith_int(Op::kCmp, 1);
  if (cur.x > 0) {
    if (charged_) hook_->arith_int(Op::kAdd, 2);
    --cur.x;
    --cur.y;
    if (charged_) hook_->arith_int(Op::kCmp, 1);
    if (cur.y == cur.x) cur = orig;
  } else {
    // Violation: the window constraint is broken. The stream stays at
    // tolerance zero and its denominator grows, which raises its urgency
    // under precedence rule 3 so it recovers service share.
    ++stats.violations;
    if (charged_) hook_->arith_int(Op::kAdd, 1);
    ++cur.y;
  }
}

void DwcsScheduler::touch_stream_state(StreamId id, int words) {
  if (!charged_) return;  // null hook discards every charge
  for (int i = 0; i < words; ++i) {
    hook_->mem(state_block(id) + static_cast<SimAddr>(i) * 4);
  }
}

void DwcsScheduler::advance_deadline(StreamId id, sim::Time now) {
  if (charged_) {
    hook_->arith_int(Op::kAdd, 1);
    hook_->mem(state_block(id));  // stream-descriptor deadline field
  }
  const sim::Time period = streams_[id].params.period;
  StreamView& v = views_[id];
  if (config_.deadline_from_completion && now > v.next_deadline) {
    v.next_deadline = now + period;
  } else {
    v.next_deadline += period;
  }
}

void DwcsScheduler::drop_head(StreamId id, sim::Time now) {
  StreamState& s = streams_[id];
  if (drop_hook_) {
    if (const auto head = rings_.front_unaccounted(id)) drop_hook_(id, *head);
  }
  rings_.pop(id);
  ++s.stats.dropped;
  touch_stream_state(id, kDropStateWords);
  adjust_lost(views_[id], s.params.tolerance, s.stats);
  advance_deadline(id, now);
  settle(id);
}

void DwcsScheduler::settle(StreamId id) {
  if (rings_.empty(id)) {
    streams_[id].has_backlog = false;
    repr_->remove(id);
  } else {
    if (const auto head = rings_.front(id)) {
      views_[id].head_enqueued_at = head->enqueued_at;
    }
    repr_->update(id);
  }
  check_backlog(id);
}

void DwcsScheduler::process_late(sim::Time now) {
  // Walk streams in deadline order; stop at the first stream that is not
  // late (every later one is on time too) or at a late loss-intolerant
  // stream that has already been adjusted (it is about to be serviced late).
  while (const auto sid = repr_->earliest_deadline()) {
    StreamState& s = streams_[*sid];
    StreamView& v = views_[*sid];
    if (charged_) hook_->arith_int(Op::kCmp, 1);
    if (v.next_deadline + config_.lateness_slack >= now) break;
    if (s.params.lossy) {
      // Drop without transmitting — saves the wire bandwidth entirely.
      drop_head(*sid, now);
    } else {
      if (!s.head_late_adjusted) {
        adjust_lost(v, s.params.tolerance, s.stats);
        s.head_late_adjusted = true;
        repr_->update(*sid);
      }
      break;  // keeps the earliest deadline: it will be picked this cycle
    }
  }
}

std::optional<Dispatch> DwcsScheduler::schedule_next(sim::Time now) {
  if (charged_) hook_->cycles(config_.decision_overhead_cycles);
  ++decisions_;

  process_late(now);

  // process_late stops at the first late loss-intolerant stream (it keeps
  // the earliest deadline and is about to be serviced late). A late *lossy*
  // stream that ties with it on deadline can still win the tolerance
  // tie-break here — its head must be dropped, never transmitted late.
  std::optional<StreamId> sid;
  for (;;) {
    sid = repr_->pick();
    if (!sid) return std::nullopt;
    StreamState& cand = streams_[*sid];
    StreamView& cv = views_[*sid];
    if (charged_) hook_->arith_int(Op::kCmp, 1);
    if (!cand.params.lossy ||
        cv.next_deadline + config_.lateness_slack >= now) {
      break;
    }
    drop_head(*sid, now);
  }
  StreamState& s = streams_[*sid];
  StreamView& v = views_[*sid];
  const auto head = rings_.front(*sid);
  assert(head.has_value());
  rings_.pop(*sid);
  // The winner is charged one service the moment its head leaves the ring:
  // stateful rank policies (WFQ virtual time) advance here. The repr
  // update()/remove() at the end of this cycle re-sifts, per the on_charge
  // contract. Dropped heads (process_late, the loop above) are never
  // charged — a drop spends no service.
  repr_->on_charge(*sid);

  Dispatch d;
  d.stream = *sid;
  d.frame = *head;
  d.deadline = v.next_deadline;
  if (charged_) hook_->arith_int(Op::kCmp, 1);
  d.late = v.next_deadline + config_.lateness_slack < now;

  touch_stream_state(*sid, kServiceStateWords);
  if (d.late) {
    // Late transmission on a loss-intolerant stream: the loss adjustment
    // already happened in process_late.
    assert(!s.params.lossy);
    ++s.stats.serviced_late;
    s.head_late_adjusted = false;
  } else {
    ++s.stats.serviced_on_time;
    adjust_serviced(v, s.params.tolerance);
  }
  s.stats.bytes_sent += head->bytes;
  advance_deadline(*sid, now);
  settle(*sid);
  return d;
}

std::size_t DwcsScheduler::purge_stream(StreamId id) {
  assert(id < streams_.size());
  StreamState& s = streams_[id];
  std::size_t purged = 0;
  while (const auto head = rings_.front_unaccounted(id)) {
    if (drop_hook_) drop_hook_(id, *head);
    rings_.pop_unaccounted(id);
    ++purged;
  }
  s.stats.dropped += purged;
  if (s.has_backlog) {
    s.has_backlog = false;
    repr_->remove(id);
  }
  s.head_late_adjusted = false;
  check_backlog(id);
  return purged;
}

std::uint64_t DwcsScheduler::total_violations() const {
  std::uint64_t sum = 0;
  for (const auto& s : streams_) sum += s.stats.violations;
  return sum;
}

}  // namespace nistream::dwcs
