// Sliding-window constraint checker.
//
// Independent verification of the DWCS service guarantee: for a stream with
// tolerance x/y, every window of y *consecutive* packets may contain at most
// x losses (drops or late transmissions). The monitor watches the outcome
// sequence a scheduler produces and counts windows that break the bound.
//
// It is used three ways:
//  * as the oracle in DWCS property tests (under feasible load the DWCS
//    violation count must stay at/near zero while EDF and round-robin rack
//    them up);
//  * as the scoring function of the ablate_policy bench;
//  * as the QoS ledger of the cluster control plane, where one logical
//    stream may be served by several boards over its lifetime.
//
// Stats are keyed by (board scope, stream id), not by stream id alone: a
// stream re-admitted on a sibling NI after its home board crashed gets a
// fresh key there, so its post-migration outcome sequence cannot alias the
// counters it accumulated before the crash (the dead placement's stats stay
// frozen, attributable to the outage). Single-scheduler users keep the old
// positional API — it is the keyed API specialized to scope 0.
//
// Each placement holds its last y outcomes as a y-bit ring of ceil(y/64)
// words: the session plane monitors every admitted stream for as long as it
// plays, and y is usually 8 or less. The first word is allocated when the
// stream is added, which covers y <= 64; a longer window grows one word at a
// time over its first y packets, so a huge y (it comes from the client's
// X-Window header) costs only the packets seen.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "dwcs/types.hpp"

namespace nistream::dwcs {

class WindowViolationMonitor {
 public:
  /// Identifies one *placement* of a stream: the scheduler scope it runs in
  /// (a board id, usually folded with the board incarnation so a reboot
  /// starts a fresh window history) and the service-local stream id there.
  struct StreamKey {
    std::uint32_t scope = 0;  // board (+ incarnation); 0 = single-scheduler
    StreamId stream = 0;

    friend bool operator==(const StreamKey&, const StreamKey&) = default;
  };

  enum class Outcome : std::uint8_t { kOnTime, kLate, kDropped };

  /// Register a stream under an explicit placement key. Re-registering an
  /// existing key keeps its state (a hang-recovered board resumes the same
  /// window history — nothing was wiped).
  void add_stream(StreamKey key, const WindowConstraint& c) {
    assert(c.y >= 1);
    const auto [it, fresh] = states_.try_emplace(pack(key));
    if (!fresh) return;
    it->second.constraint = c;
    it->second.ring.assign(1, 0);
  }

  /// Legacy single-scheduler registration: ids must be registered in order,
  /// all under scope 0.
  void add_stream(const WindowConstraint& c) {
    add_stream(StreamKey{0, next_seq_++}, c);
  }

  /// Record the outcome of the next consecutive packet of `key`.
  void record(StreamKey key, Outcome o) {
    State& s = states_.at(pack(key));
    if (s.retired) return;
    const bool lost = o != Outcome::kOnTime;
    // Packet n's bit sits at n mod y, so the slot it takes holds packet
    // n - y's: the one leaving a full window.
    const auto y = static_cast<std::uint64_t>(s.constraint.y);
    const std::uint64_t slot = s.packets % y;
    if (slot / 64 == s.ring.size()) s.ring.push_back(0);
    std::uint64_t& word = s.ring[slot / 64];
    const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
    if (s.packets >= y) s.losses_in_window -= (word & bit) != 0;
    word = lost ? word | bit : word & ~bit;
    s.losses_in_window += lost;
    ++s.packets;
    // Only full windows can violate; count each offending window position.
    if (s.packets >= y && s.losses_in_window > s.constraint.x) {
      ++s.violating_windows;
    }
  }
  void record(StreamId id, Outcome o) { record(StreamKey{0, id}, o); }

  [[nodiscard]] std::uint64_t violating_windows(StreamKey key) const {
    return states_.at(pack(key)).violating_windows;
  }
  [[nodiscard]] std::uint64_t violating_windows(StreamId id) const {
    return violating_windows(StreamKey{0, id});
  }
  [[nodiscard]] std::uint64_t total_violating_windows() const {
    return fold(std::nullopt).violating;
  }
  [[nodiscard]] std::uint64_t packets(StreamKey key) const {
    return states_.at(pack(key)).packets;
  }
  [[nodiscard]] std::uint64_t packets(StreamId id) const {
    return packets(StreamKey{0, id});
  }
  /// Full window positions this placement has seen (the denominator of
  /// violation_rate); 0 until `y` packets arrived.
  [[nodiscard]] std::uint64_t window_positions(StreamKey key) const {
    return positions_of(states_.at(pack(key)));
  }
  /// Fraction of window positions (per placement) that violated the bound.
  [[nodiscard]] double violation_rate(StreamKey key) const {
    const auto windows = window_positions(key);
    return windows ? static_cast<double>(violating_windows(key)) /
                         static_cast<double>(windows)
                   : 0.0;
  }
  [[nodiscard]] double violation_rate(StreamId id) const {
    return violation_rate(StreamKey{0, id});
  }
  [[nodiscard]] bool known(StreamKey key) const {
    return states_.contains(pack(key));
  }

  /// End QoS accounting for a placement while keeping its history in the
  /// aggregates. The session plane retires a stream when its client tears
  /// the session down: the frames purged from the ring afterwards were
  /// abandoned by their own receiver, not missed by the scheduler.
  void retire(StreamKey key) {
    if (const auto it = states_.find(pack(key)); it != states_.end()) {
      it->second.retired = true;
    }
  }

  /// Worst per-placement violation rate across every registered placement —
  /// the "no stream collapsed" headline number of the sweep benches.
  /// Placements that never filled a window contribute 0.
  [[nodiscard]] double max_violation_rate() const {
    return fold(std::nullopt).worst;
  }

  /// Violating window positions over ALL positions, across every placement —
  /// the population-level QoS number (max_violation_rate can be pinned at
  /// 1.0 by a single unlucky four-packet stream).
  [[nodiscard]] double aggregate_violation_rate() const {
    return fold(std::nullopt).rate();
  }

  /// Placements with at least one violating window position.
  [[nodiscard]] std::uint64_t violating_streams() const {
    return fold(std::nullopt).streams;
  }

  /// Per-scope variants of the three fleet numbers above, filtering to one
  /// placement scope (a tenant, or a board in the cluster plane). The
  /// tenant-isolation gate compares scope_max_violation_rate of the victim
  /// tenant against its flood-free baseline.
  [[nodiscard]] double scope_max_violation_rate(std::uint32_t scope) const {
    return fold(scope).worst;
  }

  [[nodiscard]] double scope_aggregate_violation_rate(
      std::uint32_t scope) const {
    return fold(scope).rate();
  }

  [[nodiscard]] std::uint64_t scope_violating_streams(
      std::uint32_t scope) const {
    return fold(scope).streams;
  }

 private:
  struct State {
    WindowConstraint constraint;
    std::vector<std::uint64_t> ring;  // bit n mod y: packet n lost
    std::int64_t losses_in_window = 0;
    std::uint64_t packets = 0;
    std::uint64_t violating_windows = 0;
    bool retired = false;
  };

  [[nodiscard]] static std::uint64_t pack(StreamKey key) {
    return (static_cast<std::uint64_t>(key.scope) << 32) | key.stream;
  }

  [[nodiscard]] static std::uint64_t positions_of(const State& s) {
    return s.packets >= static_cast<std::uint64_t>(s.constraint.y)
               ? s.packets - static_cast<std::uint64_t>(s.constraint.y) + 1
               : 0;
  }

  /// The fleet numbers over every placement, or over one scope's.
  struct Totals {
    std::uint64_t windows = 0;    // full window positions
    std::uint64_t violating = 0;  // of them, positions over the bound
    std::uint64_t streams = 0;    // placements with a violating position
    double worst = 0.0;           // highest per-placement violation rate

    [[nodiscard]] double rate() const {
      return windows ? static_cast<double>(violating) /
                           static_cast<double>(windows)
                     : 0.0;
    }
  };

  [[nodiscard]] Totals fold(std::optional<std::uint32_t> scope) const {
    Totals t;
    for (const auto& [k, s] : states_) {
      if (scope && (k >> 32) != *scope) continue;
      const std::uint64_t windows = positions_of(s);
      t.windows += windows;
      t.violating += s.violating_windows;
      t.streams += s.violating_windows > 0;
      if (windows == 0) continue;
      const double rate = static_cast<double>(s.violating_windows) /
                          static_cast<double>(windows);
      if (rate > t.worst) t.worst = rate;
    }
    return t;
  }

  std::unordered_map<std::uint64_t, State> states_;
  StreamId next_seq_ = 0;
};

}  // namespace nistream::dwcs
