// Core types of the DWCS (Dynamic Window-Constrained Scheduling) library.
//
// DWCS (West & Schwan; used by the paper as its NI-resident media scheduler)
// schedules packet streams under two per-stream attributes (§3.1.2):
//  * Deadline — the latest time the head packet may commence service;
//    consecutive packets' deadlines are offset by a fixed request period.
//  * Loss-tolerance x/y — in every window of y consecutive packets, at most
//    x may be lost or transmitted late.
#pragma once

#include <cstdint>
#include <limits>

#include "mpeg/frame.hpp"
#include "sim/time.hpp"

namespace nistream::dwcs {

using StreamId = std::uint32_t;
inline constexpr StreamId kInvalidStream = std::numeric_limits<StreamId>::max();

/// Simulated address of scheduler state (rings, heaps, per-stream blocks),
/// handed to CostHook::mem so the cache model can key on it. Never a host
/// pointer, so charged runs are reproducible under ASLR.
using SimAddr = std::uint64_t;

/// A loss-tolerance window constraint: x losses permitted per y consecutive
/// packets. (x=0 means no losses tolerated; x=y means pure best-effort.)
struct WindowConstraint {
  std::int64_t x = 0;
  std::int64_t y = 1;

  [[nodiscard]] bool valid() const { return y >= 1 && x >= 0 && x <= y; }
  friend bool operator==(const WindowConstraint&,
                         const WindowConstraint&) = default;
};

/// Static per-stream service specification.
struct StreamParams {
  WindowConstraint tolerance{};             // original xi/yi
  sim::Time period = sim::Time::ms(33);     // Ti: deadline spacing
  /// Lossy streams drop late packets without transmitting them (saving
  /// bandwidth); loss-intolerant streams transmit them late.
  bool lossy = true;
};

/// Descriptor of one queued frame (the scheduler's unit of work). Frames
/// themselves live once in NI memory, whose pool releases them by byte
/// count, so no field holds a frame's address. On the host a ring slot keeps
/// these fields' 21 bytes, unpadded (RingTable); the cost model charges the
/// i960's 16-byte descriptor (RingTable::kDescriptorWords).
struct FrameDescriptor {
  std::uint64_t frame_id = 0;
  std::uint32_t bytes = 0;
  mpeg::FrameType type = mpeg::FrameType::kI;
  sim::Time enqueued_at;    // entry into scheduler queues (queuing delay t0)
};

/// What the scheduler decided to do on one cycle.
struct Dispatch {
  StreamId stream = kInvalidStream;
  FrameDescriptor frame{};
  sim::Time deadline;   // the deadline this packet was held to
  bool late = false;    // true: past deadline (transmitted late, not dropped)
};

/// Per-stream service accounting.
struct StreamStats {
  std::uint64_t enqueued = 0;
  std::uint64_t serviced_on_time = 0;
  std::uint64_t serviced_late = 0;   // loss-intolerant streams only
  std::uint64_t dropped = 0;         // lossy streams' late packets
  std::uint64_t violations = 0;      // window-constraint violations (x' was 0)
  std::uint64_t bytes_sent = 0;

  [[nodiscard]] std::uint64_t losses() const {
    return serviced_late + dropped;
  }
};

/// Dynamic per-stream scheduling state, exposed read-only for representations
/// and tests. Deliberately lean — 32 bytes, two views per cache line: these
/// are the only words a heap compare loads, so representation scaling is
/// bounded by how many of them stay cache-resident. Static attributes (the
/// original window constraint, in StreamParams) and scheduler bookkeeping
/// (backlog flags) live with the scheduler, not here.
struct StreamView {
  sim::Time next_deadline;
  WindowConstraint current;
  sim::Time head_enqueued_at;  // arrival of the head packet (FCFS orderings)
};
static_assert(sizeof(StreamView) == 32,
              "StreamView is sized for two views per cache line; keep cold "
              "state out of it");

}  // namespace nistream::dwcs
