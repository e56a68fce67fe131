// Baseline packet schedulers: EDF, static priority, round-robin.
//
// These implement the same PacketScheduler interface and deadline/drop
// machinery as DWCS but none of its window-constraint logic, so experiments
// can quantify exactly what the loss-tolerance mechanism buys (the
// ablate_policy bench counts window violations under overload for each
// policy via the WindowViolationMonitor).
//
// EDF and static priority are not hand-written scan loops anymore: the base
// class carries a PIFO rank engine (pifo.hpp) and those baselines are the
// engine under EdfRank / StaticPriorityRank — the same rank structs
// DwcsScheduler runs under ReprKind::kPifo, so a baseline and the kPifo
// ablation cell literally share their ordering code. Round-robin is not
// expressible as a rank over per-stream state alone (its order depends on
// the cursor, i.e. on service history of OTHER streams), so it keeps its
// cursor scan.
#pragma once

#include <cassert>
#include <memory>
#include <optional>
#include <vector>

#include "dwcs/scheduler.hpp"
#include "dwcs/types.hpp"

namespace nistream::dwcs {

/// Common stream bookkeeping shared by the baselines.
class BaselineScheduler : public PacketScheduler, private StreamTable {
 public:
  /// Engine-less baseline: the subclass must override pick().
  explicit BaselineScheduler(std::size_t ring_capacity = 256);

  StreamId create_stream(const StreamParams& params, sim::Time now) override;
  bool enqueue(StreamId id, const FrameDescriptor& frame, sim::Time now) override;
  std::optional<Dispatch> schedule_next(sim::Time now) override;

  [[nodiscard]] const StreamStats& stats(StreamId id) const override {
    return streams_[id].stats;
  }
  [[nodiscard]] std::size_t backlog(StreamId id) const override {
    return rings_.size(id);
  }
  [[nodiscard]] std::size_t stream_count() const override {
    return streams_.size();
  }

 protected:
  /// Rank-engine-backed baseline: pick() defaults to `policy`'s PIFO order
  /// over the backlogged streams.
  BaselineScheduler(PolicyKind policy, std::size_t ring_capacity);

  struct StreamState {  // stream `id`'s frames sit in ring `id`
    StreamParams params;
    StreamStats stats;
    bool has_backlog = false;  // stream currently in the rank engine
  };

  /// Policy: choose among streams with backlog; nullopt when none. Defaults
  /// to the rank engine's pick; engine-less baselines must override.
  [[nodiscard]] virtual std::optional<StreamId> pick(sim::Time now);

  [[nodiscard]] const std::vector<StreamState>& streams() const {
    return streams_;
  }
  /// Current deadline of `id` (dynamic state lives in the view table the
  /// rank engine indexes, not in StreamState).
  [[nodiscard]] sim::Time deadline(StreamId id) const {
    return views_[id].next_deadline;
  }

 private:
  void drop_late_lossy(sim::Time now);

  Comparator comparator_;  // uncharged; the engine signature requires one
  RingTable rings_;        // uncharged, like the comparator
  std::vector<StreamState> streams_;
  std::vector<StreamView> views_;  // parallel to streams_; backs StreamTable
  std::unique_ptr<ScheduleRepr> repr_;  // null: subclass pick() scans rings
};

/// Earliest-deadline-first — the rank engine under EdfRank.
class EdfScheduler final : public BaselineScheduler {
 public:
  explicit EdfScheduler(std::size_t ring_capacity = 256)
      : BaselineScheduler{PolicyKind::kEdf, ring_capacity} {}
  [[nodiscard]] const char* name() const override { return "edf"; }
};

/// Fixed priority by creation order (stream 0 most important) — the rank
/// engine under StaticPriorityRank.
class StaticPriorityScheduler final : public BaselineScheduler {
 public:
  explicit StaticPriorityScheduler(std::size_t ring_capacity = 256)
      : BaselineScheduler{PolicyKind::kStaticPriority, ring_capacity} {}
  [[nodiscard]] const char* name() const override { return "static-priority"; }
};

/// Round-robin over backlogged streams (cursor scan; see header comment for
/// why this one is not a rank policy).
class RoundRobinScheduler final : public BaselineScheduler {
 public:
  using BaselineScheduler::BaselineScheduler;
  [[nodiscard]] const char* name() const override { return "round-robin"; }

 protected:
  std::optional<StreamId> pick(sim::Time) override;

 private:
  StreamId cursor_ = 0;
};

}  // namespace nistream::dwcs
