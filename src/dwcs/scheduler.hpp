// The DWCS scheduler, plus the generic packet-scheduler interface that the
// baseline policies (EDF, static priority, round-robin) also implement.
//
// Lifecycle per scheduling cycle (schedule_next):
//   1. Late-packet processing: streams whose head packet missed its deadline
//      get the rule-(B) window adjustment; lossy streams drop the packet
//      without transmitting it ("stream-selective lossiness", the paper's
//      traffic-elimination mechanism), loss-intolerant streams keep it for
//      late transmission.
//   2. Pick: the representation returns the stream with lowest priority
//      value under the precedence rules (comparator.hpp).
//   3. Service: dequeue the head frame, apply the rule-(A) window adjustment
//      (for on-time service), advance the stream's deadline by its period.
//
// Stream id `id` names everything the scheduler keeps for a stream: its
// entry in the state and view vectors, ring `id` of the scheduler's
// RingTable (simulated region 0x02000000 + id × 64 KB), and its simulated
// stream-state block at 0x00F00000 + id × 128. Both addresses are computed
// from the id, not stored.
//
// Window-constraint adjustments (West & Schwan). With original constraint
// x/y and current x'/y':
//   (A) serviced before deadline:   if (y' > x') y'--;
//                                   if (y' == x') { x'=x; y'=y; }   [window
//       complete: y-x on-time services satisfy any window of y packets]
//   (B) head packet lost/late:      if (x' > 0) { x'--; y'--;
//                                     if (y' == x') { x'=x; y'=y; } }
//                                   else violation: y'++  [rule 3 makes the
//       violated stream increasingly urgent among zero-tolerance streams]
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "dwcs/comparator.hpp"
#include "dwcs/cost.hpp"
#include "dwcs/repr.hpp"
#include "dwcs/ring.hpp"
#include "dwcs/types.hpp"
#include "sim/time.hpp"

namespace nistream::dwcs {

/// Interface shared by DWCS and the baseline policies, so experiments can
/// swap schedulers without touching the harness.
class PacketScheduler {
 public:
  virtual ~PacketScheduler() = default;

  virtual StreamId create_stream(const StreamParams& params, sim::Time now) = 0;
  /// Producer side. Returns false when the stream's ring is full.
  virtual bool enqueue(StreamId id, const FrameDescriptor& frame,
                       sim::Time now) = 0;
  /// One scheduling cycle at time `now`; nullopt when nothing is backlogged.
  virtual std::optional<Dispatch> schedule_next(sim::Time now) = 0;

  [[nodiscard]] virtual const StreamStats& stats(StreamId id) const = 0;
  [[nodiscard]] virtual std::size_t backlog(StreamId id) const = 0;
  [[nodiscard]] virtual std::size_t stream_count() const = 0;
  [[nodiscard]] virtual const char* name() const = 0;
};

class DwcsScheduler final : public PacketScheduler, private StreamTable {
 public:
  struct Config {
    ArithMode arith = ArithMode::kFixedPoint;
    ReprKind repr = ReprKind::kDualHeap;
    /// Rank policy of the PIFO engine; consulted when repr == kPifo (flat
    /// engine) or kHierarchical (per-core engines + root order). The window-
    /// constraint analysis (late processing, rule A/B adjustments) runs
    /// unchanged under any policy — only the pick order differs — which is
    /// what lets bench/ablate_policy isolate the policy effect.
    PolicyKind policy = PolicyKind::kDwcs;
    /// Shard count and interconnect-hop cost of the sharded multi-core
    /// representation; consulted only when repr == ReprKind::kHierarchical.
    HierarchicalParams hierarchical{};
    DescriptorResidency residency = DescriptorResidency::kPinnedMemory;
    std::size_t ring_capacity = 256;
    /// Deadline anchoring. The paper defines the deadline as "the maximum
    /// allowable time between servicing consecutive packets": anchored to
    /// the previous packet's actual service/drop time (true), the next
    /// deadline is service_time + period, so one late service does not
    /// cascade into lateness for every successor. Anchored to a fixed grid
    /// (false), deadlines advance by exactly one period per departure.
    bool deadline_from_completion = false;
    /// Fixed control-flow overhead charged per scheduling decision (call
    /// chain, instruction fetch, kernel entry/exit on the embedded build) —
    /// calibrated so the 66 MHz i960 decision path lands on Table 1/2.
    std::int64_t decision_overhead_cycles = 4100;
    /// Scheduler-granularity allowance for late-packet processing: a head no
    /// more than this far past its deadline is still serviced (and counted
    /// on time) instead of dropped/penalized. The paced dispatch loop
    /// serializes same-instant deadlines at the per-frame CPU cost, so with
    /// zero slack a stream whose grid lands inside another stream's dispatch
    /// burst loses its head every period. Zero preserves the strict paper
    /// semantics; the session plane sets a fraction of the frame period.
    sim::Time lateness_slack = sim::Time::zero();
  };

  explicit DwcsScheduler(Config config, CostHook& hook = null_cost_hook());

  /// Pre-size per-stream state, the ring table's page list and the
  /// representation's structures for `n` streams (host-side capacity
  /// planning; charges nothing). Optional — the scheduler grows on demand
  /// without it.
  void reserve_streams(std::size_t n) {
    streams_.reserve(n);
    views_.reserve(n);
    rings_.reserve(n);
    repr_->reserve(n);
  }

  // PacketScheduler:
  StreamId create_stream(const StreamParams& params, sim::Time now) override;
  bool enqueue(StreamId id, const FrameDescriptor& frame, sim::Time now) override;
  std::optional<Dispatch> schedule_next(sim::Time now) override;
  [[nodiscard]] const StreamStats& stats(StreamId id) const override;
  [[nodiscard]] std::size_t backlog(StreamId id) const override;
  [[nodiscard]] std::size_t stream_count() const override {
    return streams_.size();
  }
  [[nodiscard]] const char* name() const override { return "dwcs"; }

  // Introspection for tests and experiments:
  [[nodiscard]] const StreamView& stream_view(StreamId id) const {
    return view(id);
  }
  [[nodiscard]] const StreamParams& stream_params(StreamId id) const;
  [[nodiscard]] std::uint64_t decisions() const { return decisions_; }
  /// The live representation. Callers that configured a specific ReprKind may
  /// downcast (e.g. to HierarchicalScheduler to attach a shard-execution
  /// trace); the scheduler itself only ever uses the ScheduleRepr interface.
  [[nodiscard]] ScheduleRepr& repr() { return *repr_; }
  [[nodiscard]] std::uint64_t total_violations() const;
  [[nodiscard]] const Config& config() const { return config_; }

  /// Deadline of the earliest-deadline backlogged stream; nullopt when idle.
  /// Used by paced dispatch loops to sleep until the next service instant.
  [[nodiscard]] std::optional<sim::Time> earliest_backlog_deadline() {
    const auto sid = repr_->earliest_deadline();
    if (!sid) return std::nullopt;
    return views_[*sid].next_deadline;
  }

  /// Fires whenever the scheduler drops a frame internally (lossy late drop
  /// or purge) — frames that leave the queues without ever being dispatched.
  /// Owners use it to release per-frame resources and feed QoS monitors.
  /// Charges nothing: the descriptor handed over is read unaccounted.
  using DropHook = std::function<void(StreamId, const FrameDescriptor&)>;
  void set_drop_hook(DropHook hook) { drop_hook_ = std::move(hook); }

  /// Discard every queued frame of `id` without window adjustments — the
  /// board holding the queues died; the frames are gone, not "late". Fires
  /// the drop hook per frame, counts them in stats().dropped, and charges
  /// nothing (no CPU exists to charge). Returns the number purged.
  std::size_t purge_stream(StreamId id);

 private:
  // Dynamic keys (StreamView) live in the dense `views_` vector that backs
  // the StreamTable base, not here: representation compares index that array
  // directly, and keeping it free of cold per-stream state (params, stats)
  // keeps the sift paths' working set tight. The frames sit in ring `id` of
  // `rings_`.
  struct StreamState {
    StreamParams params;
    StreamStats stats;
    bool has_backlog = false;         // stream currently in the repr
    bool head_late_adjusted = false;  // rule B applied to the current head
  };

  /// Simulated address of stream `id`'s state block.
  static constexpr SimAddr state_block(StreamId id) {
    return 0x00F0'0000 + static_cast<SimAddr>(id) * 128;
  }
  /// Words of per-stream state (attributes, deadline, stats, timestamps)
  /// read+written when a frame is serviced / dropped. This is the traffic
  /// the i960 d-cache accelerates in Table 2.
  static constexpr int kServiceStateWords = 24;
  static constexpr int kDropStateWords = 12;
  void touch_stream_state(StreamId id, int words);

  void adjust_serviced(StreamView& v, const WindowConstraint& orig);  // (A)
  void adjust_lost(StreamView& v, const WindowConstraint& orig,      // (B)
                   StreamStats& stats);
  void advance_deadline(StreamId id, sim::Time now);
  /// Drop `id`'s late head without transmitting it (lossy streams).
  void drop_head(StreamId id, sim::Time now);
  /// After `id`'s head left its ring: leave the repr if the ring is empty,
  /// else re-key on the new head.
  void settle(StreamId id);
  /// Debug check: a stream is in the repr exactly while its ring holds
  /// frames.
  void check_backlog(StreamId id) const {
    assert(streams_[id].has_backlog == !rings_.empty(id));
    (void)id;
  }
  void process_late(sim::Time now);

  Config config_;
  CostHook* hook_;
  // Cached hook_->accounted(): false only for the discarding null hook, so
  // every charge site can be guarded by a plain bool instead of paying a
  // virtual no-op call — dozens per decision on wall-clock runs.
  bool charged_;
  Comparator comparator_;
  RingTable rings_;  // ring `id` holds stream `id`'s frames
  std::vector<StreamState> streams_;
  std::vector<StreamView> views_;  // parallel to streams_; backs StreamTable
  std::unique_ptr<ScheduleRepr> repr_;
  DropHook drop_hook_;
  std::uint64_t decisions_ = 0;
};

}  // namespace nistream::dwcs
