// Discrete-event simulation engine.
//
// A single Engine owns the simulated clock and a time-ordered queue of
// events. Events scheduled for the same instant fire in the order they were
// scheduled (FIFO tie-break via a monotonically increasing sequence number),
// which makes every experiment in this repository bit-for-bit deterministic.
//
// Storage layout: events live in a sim::HandleTable of slots, and the
// priority queue is an implicit 4-ary heap of pointers to them (the table's
// pages never move, so a compare reads its slots directly). The event
// payload is an InlineEvent — the capture lives inside the slot, recycled
// with it — so scheduling an event after warm-up allocates nothing at all:
// no std::function heap path, no shared_ptr control block per event, no heap
// churn at 100k in-flight timers. A slot is 80 bytes: the (time, sequence)
// key, its heap position and table index, and the InlineEvent's 48-byte
// capture and ops pointer. With the table's 4-byte generation word and the
// heap's pointer, an armed event costs 92 bytes plus the heap vector's spare
// capacity (Footprint.ArmedEventCostsAtMostNinetySixBytes).
//
// Cancellation is eager: each slot records its place in the heap, so
// cancel() takes the event out of the heap in O(log n) and frees its slot
// at once. The slab and the heap therefore hold armed events only; a
// transport that re-arms a retransmission timer on every ACK does not leave
// a trail of dead entries waiting for their deadlines. Events run in
// (time, sequence) order, a total order, so removing an entry early never
// changes which event runs next.
//
// Tickets: a component whose future events already fire in the order they
// were created (an Ethernet downlink delivers frames in send order, at
// strictly increasing times) can keep them itself and hand the engine only
// the next one. reserve_ticket() takes the sequence number an event created
// now would get; schedule_at(at, ticket, fn) later inserts the event under
// it. The event then runs exactly where it would have run had it been
// scheduled when the ticket was taken, same-instant ties included, so the
// heap holds one entry per such component instead of one per event.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/handle_table.hpp"
#include "sim/inline_event.hpp"
#include "sim/time.hpp"

namespace nistream::sim {

class Engine;

/// Handle returned by Engine::schedule*; allows cancellation.
///
/// Copyable and cheap: a (slot, generation) pair into the engine's slot
/// table. The generation check makes cancelling an already-fired or
/// already-cancelled event a no-op even after the slot has been reused for a
/// newer event.
/// Handles must not be used after their Engine is destroyed, except that
/// cancel() from a capture destroyed by ~Engine is a no-op.
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevent the event from firing and free its slot. Safe to call at any
  /// point, including from the destructor of an event's own capture.
  inline void cancel();
  [[nodiscard]] inline bool pending() const;

 private:
  friend class Engine;
  EventHandle(Engine* engine, std::uint32_t slot, std::uint32_t gen)
      : engine_{engine}, slot_{slot}, gen_{gen} {}

  Engine* engine_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

/// A reserved place in the engine's (time, sequence) order; see
/// Engine::reserve_ticket. Use each ticket for at most one event.
class Ticket {
 public:
  Ticket() = default;

 private:
  friend class Engine;
  explicit Ticket(std::uint64_t seq) : seq_{seq} {}
  std::uint64_t seq_ = 0;
};

/// The event engine. Not thread-safe by design: determinism comes first, and
/// every experiment fits comfortably in one thread of a modern machine.
class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  [[nodiscard]] Time now() const { return now_; }

  /// Schedule `fn` at absolute time `at` (must be >= now()).
  EventHandle schedule_at(Time at, InlineEvent fn);

  /// Schedule `fn` after `delay` (must be >= 0).
  EventHandle schedule_in(Time delay, InlineEvent fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Take the sequence number the next scheduled event would get, without
  /// scheduling anything. The holder must hand the event over (below) before
  /// the engine runs any event ordered after it.
  [[nodiscard]] Ticket reserve_ticket() { return Ticket{next_seq_++}; }

  /// Schedule `fn` at `at` (must be >= now()) in the place `ticket` reserved.
  EventHandle schedule_at(Time at, Ticket ticket, InlineEvent fn);

  /// Run until the event queue drains. Returns the final clock value.
  Time run();

  /// Run until simulated time reaches `deadline` (events at exactly
  /// `deadline` are executed). The clock is advanced to `deadline` even if
  /// the queue drains earlier.
  Time run_until(Time deadline);

  /// Execute exactly one event, if any. Returns false when the queue is empty.
  bool step();

  /// Number of armed events: scheduled, neither fired nor cancelled. Events
  /// a component still holds behind a reserved ticket are not queued here
  /// yet, so they are not counted.
  [[nodiscard]] std::size_t pending_events() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }
  /// Slots in the slot table: the most events ever armed at once.
  [[nodiscard]] std::size_t slab_size() const { return slots_.size(); }

 private:
  friend class EventHandle;

  struct Slot {
    Time at = Time::zero();
    std::uint64_t seq = 0;
    std::uint32_t heap_pos = 0;  // index in heap_ while armed
    std::uint32_t index = 0;     // this slot's index in slots_
    InlineEvent fn;
  };
  static_assert(sizeof(Slot) <= 80, "an event slot outgrew 80 bytes");

  [[nodiscard]] static bool earlier(const Slot* a, const Slot* b) {
    if (a->at != b->at) return a->at < b->at;
    return a->seq < b->seq;
  }
  EventHandle insert(Time at, std::uint64_t seq, InlineEvent fn);
  void place(std::size_t i, Slot* slot) {
    heap_[i] = slot;
    slot->heap_pos = static_cast<std::uint32_t>(i);
  }
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  /// Remove the heap entry at `i`, keeping the heap ordered.
  void erase_at(std::size_t i);
  /// Unqueue an armed event and free its slot, invalidating its handles.
  /// Returns the capture, for the caller to run or destroy once the engine
  /// is consistent again.
  InlineEvent release(std::uint32_t slot);

  void handle_cancel(std::uint32_t slot, std::uint32_t gen) {
    if (slots_.live(slot, gen)) release(slot);  // capture dies here
  }

  HandleTable<Slot> slots_;
  std::vector<Slot*> heap_;  // implicit 4-ary heap
  Time now_ = Time::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

inline void EventHandle::cancel() {
  if (engine_ != nullptr) engine_->handle_cancel(slot_, gen_);
}

inline bool EventHandle::pending() const {
  return engine_ != nullptr && engine_->slots_.live(slot_, gen_);
}

}  // namespace nistream::sim
