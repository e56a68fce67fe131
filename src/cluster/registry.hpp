// The cluster-wide shadow registry: stream identity that outlives boards.
//
// Each logical stream admitted to the cluster gets a GlobalStreamId here at
// admission time — before any board learns about it — because the board's
// copy of the state dies with the board. A stream's *residence* says where
// it is being served right now: which board, under which board incarnation,
// and what service-local id it answers to there. Residences are keyed by
// (board incarnation, local id), never by local id alone: board 2's stream
// 3 in incarnation 0 and the stream that happens to get local id 3 after
// board 2 reboots are different placements with different QoS histories.
//
// The registry records, it does not decide: migration policy (who adopts
// what, in which order) lives in the control plane.
#pragma once

#include <cassert>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cluster/wire.hpp"
#include "dwcs/types.hpp"

namespace nistream::cluster {

/// Serving location of a stream at one point in its life.
struct Residence {
  /// Member board index, or kHost when the stream spilled to the host
  /// scheduler (the last-resort path).
  static constexpr int kHost = -1;
  static constexpr int kNowhere = -2;  // in flight between boards

  int board = kNowhere;
  std::uint64_t incarnation = 0;  // board incarnation at placement time
  dwcs::StreamId local = dwcs::kInvalidStream;
  /// Monitor scope this placement records QoS under (see
  /// dwcs::WindowViolationMonitor::StreamKey).
  std::uint32_t monitor_scope = 0;

  [[nodiscard]] bool on_host() const { return board == kHost; }
  [[nodiscard]] bool placed() const { return board != kNowhere; }
};

/// Everything the control plane remembers about one logical stream.
struct StreamRecord {
  GlobalStreamId id = 0;
  dwcs::StreamParams params{};
  int client_port = -1;
  std::uint32_t mean_frame_bytes = 1000;
  /// Send-side sequence position, refreshed from checkpoints at migration.
  std::uint64_t frames_sent = 0;

  /// Original placement, the drain-back target after the home board reboots.
  int home_board = -1;
  dwcs::StreamId home_local = dwcs::kInvalidStream;

  Residence where{};               // current (or last, while in flight)
  std::vector<Residence> history;  // superseded placements, QoS aggregation

  /// Migration state. in_flight: evacuated, enqueues impossible until the
  /// adoption lands. draining: still served at `where`, a fail-back
  /// shipment to flight_dst is on the wire.
  bool in_flight = false;
  bool draining = false;
  int flight_dst = Residence::kNowhere;
  std::uint64_t flight_epoch = 0;  // stale-adoption guard

  std::uint64_t migrations = 0;
};

class ShadowRegistry {
 public:
  /// Admit a new logical stream; residence is filled in by the caller once
  /// placement succeeds.
  StreamRecord& add(const dwcs::StreamParams& params, int client_port,
                    std::uint32_t mean_frame_bytes) {
    StreamRecord rec;
    rec.id = static_cast<GlobalStreamId>(records_.size());
    rec.params = params;
    rec.client_port = client_port;
    rec.mean_frame_bytes = mean_frame_bytes;
    records_.push_back(std::move(rec));
    return records_.back();
  }

  [[nodiscard]] StreamRecord& record(GlobalStreamId id) {
    assert(id < records_.size());
    return records_[id];
  }
  [[nodiscard]] const StreamRecord& record(GlobalStreamId id) const {
    assert(id < records_.size());
    return records_[id];
  }
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] std::vector<StreamRecord>& records() { return records_; }
  [[nodiscard]] const std::vector<StreamRecord>& records() const {
    return records_;
  }

  /// Bind (board, local id) -> global for observer translation. Local ids
  /// are never reused within a service, so bindings are stable; fail-back
  /// onto the home board re-binds the same pair to the same global.
  void bind(int board, dwcs::StreamId local, GlobalStreamId global) {
    by_local_[local_key(board, local)] = global;
  }
  /// Global id serving (board, local), or nullptr for a local id the
  /// registry never placed (e.g. a stream a test created behind its back).
  [[nodiscard]] const GlobalStreamId* lookup(int board,
                                             dwcs::StreamId local) const {
    const auto it = by_local_.find(local_key(board, local));
    return it == by_local_.end() ? nullptr : &it->second;
  }

 private:
  [[nodiscard]] static std::uint64_t local_key(int board,
                                               dwcs::StreamId local) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(board))
            << 32) |
           local;
  }

  std::vector<StreamRecord> records_;
  std::unordered_map<std::uint64_t, GlobalStreamId> by_local_;
};

}  // namespace nistream::cluster
