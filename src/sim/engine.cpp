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

Engine::~Engine() {
  // Captures may cancel events as they are destroyed. Empty the slot table
  // first (a moved-from table is empty), so every handle those destructors
  // use finds no slot and does nothing.
  heap_.clear();
  const HandleTable<Slot> dying = std::move(slots_);
}

void Engine::sift_up(std::size_t i) {
  Slot* const moving = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!earlier(moving, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, moving);
}

void Engine::sift_down(std::size_t i) {
  Slot* const moving = heap_[i];
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
    place(i, heap_[best]);
    i = best;
  }
  place(i, moving);
}

void Engine::erase_at(std::size_t i) {
  Slot* const last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;
  heap_[i] = last;
  if (i > 0 && earlier(last, heap_[(i - 1) / 4])) {
    sift_up(i);
  } else {
    sift_down(i);
  }
}

InlineEvent Engine::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  erase_at(s.heap_pos);
  InlineEvent fn = std::move(s.fn);
  slots_.erase(slot);
  return fn;
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
  const std::uint32_t slot = slots_.emplace(at, seq, 0u, 0u, std::move(fn));
  Slot& s = slots_[slot];
  s.index = slot;
  heap_.push_back(&s);
  sift_up(heap_.size() - 1);
  return EventHandle{this, slot, slots_.generation(slot)};
}

bool Engine::step() {
  if (heap_.empty()) return false;
  const std::uint32_t slot = heap_[0]->index;
  now_ = heap_[0]->at;
  ++executed_;
  // Free the slot *before* invoking: the callback may schedule new events
  // (which may reuse this slot) or cancel through a stale handle (which the
  // bumped generation defeats).
  InlineEvent fn = release(slot);
  fn();
  return true;
}

Time Engine::run() {
  while (step()) {}
  return now_;
}

Time Engine::run_until(Time deadline) {
  while (!heap_.empty() && heap_[0]->at <= deadline) step();
  if (now_ < deadline) now_ = deadline;
  return now_;
}

}  // namespace nistream::sim
