#include "sim/engine.hpp"

#include <algorithm>
#include <iomanip>
#include <stdexcept>
#include <utility>

namespace nistream::sim {

std::ostream& operator<<(std::ostream& os, Time t) {
  // Pick a human-friendly unit: experiments report in us and ms.
  const double us = t.to_us();
  if (us < 1e3) return os << us << "us";
  if (us < 1e6) return os << us / 1e3 << "ms";
  return os << us / 1e6 << "s";
}

void Engine::sift_up(std::size_t i) {
  const std::uint32_t moving = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!earlier(moving, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = moving;
}

void Engine::sift_down(std::size_t i) {
  const std::uint32_t moving = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first_child = i * 4 + 1;
    if (first_child >= n) break;
    const std::size_t last_child = std::min(first_child + 4, n);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], moving)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = moving;
}

void Engine::pop_top() {
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void Engine::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn.reset();
  s.armed = false;
  ++s.gen;
  free_.push_back(slot);
}

EventHandle Engine::schedule_at(Time at, InlineEvent fn) {
  if (at < now_) throw std::logic_error("Engine::schedule_at: time in the past");
  return insert(at, next_seq_++, std::move(fn));
}

EventHandle Engine::schedule_at(Time at, Ticket ticket, InlineEvent fn) {
  if (at < now_) throw std::logic_error("Engine::schedule_at: time in the past");
  assert(ticket.seq_ < next_seq_ && "ticket not reserved by this engine");
  return insert(at, ticket.seq_, std::move(fn));
}

EventHandle Engine::insert(Time at, std::uint64_t seq, InlineEvent fn) {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.at = at;
  s.seq = seq;
  s.fn = std::move(fn);
  s.armed = true;
  heap_.push_back(slot);
  sift_up(heap_.size() - 1);
  return EventHandle{this, slot, s.gen};
}

bool Engine::step() {
  while (!heap_.empty()) {
    const std::uint32_t slot = heap_[0];
    pop_top();
    if (!slots_[slot].armed) {  // cancelled: recycle and keep looking
      release(slot);
      continue;
    }
    now_ = slots_[slot].at;
    ++executed_;
    // Move the callable out and free the slot *before* invoking: the
    // callback may schedule new events (which may reuse this slot) or
    // cancel through a stale handle (which the bumped generation defeats).
    InlineEvent fn = std::move(slots_[slot].fn);
    release(slot);
    fn();
    return true;
  }
  return false;
}

Time Engine::run() {
  while (step()) {}
  return now_;
}

Time Engine::run_until(Time deadline) {
  while (!heap_.empty()) {
    const std::uint32_t slot = heap_[0];
    if (!slots_[slot].armed) {
      pop_top();
      release(slot);
      continue;
    }
    if (slots_[slot].at > deadline) break;
    step();
  }
  if (now_ < deadline) now_ = deadline;
  return now_;
}

}  // namespace nistream::sim
