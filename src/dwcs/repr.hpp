// Pluggable packet-schedule representations.
//
// Paper §3.1.1: "Extensible scheduler design decoupling scheduling analysis
// and schedule representation (data structures). This allows different data
// structures to be used for experimentation (FCFS circular buffers, sorted
// lists, heaps or calendar queues)". Each representation answers the same two
// queries — the overall best stream by the DWCS precedence rules, and the
// earliest-deadline stream for late-packet processing — over the set of
// currently backlogged streams.
//
// * DualHeapRepr     — the paper's Figure 4(a): a deadline heap plus a
//                      loss-tolerance heap; deadline ties are broken with
//                      the tolerance ordering.
// * PifoRepr<Policy> (pifo.hpp) — the programmable rank engine: one heap
//                      under a policy's rank order plus the deadline heap.
//                      kPifo selects the rank policy via PolicyKind (DWCS,
//                      EDF, SP, RR, WFQ); under DWCS it is the single
//                      full-order heap.
// * SortedListRepr   — insertion-sorted list, O(n) updates, O(1) pick.
// * FcfsRepr         — arrival order of head packets; ignores attributes.
// * CalendarQueueRepr— deadline-bucketed calendar queue.
// * HierarchicalScheduler (hierarchical.hpp) — N per-core engines over
//                      hash shards of the stream population, arbitrated by
//                      an N-entry root heap of per-shard winners (the
//                      sharded multi-core NI model). Every core is a PIFO
//                      rank engine under the active policy.
//
// All representations must agree with the DWCS rank order on pick() for any
// state (except FCFS, which deliberately ignores the rules, and kPifo under
// a non-DWCS policy, which ranks by ITS rules); that equivalence is a
// property test in tests/dwcs/repr_test.cpp.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "dwcs/comparator.hpp"
#include "dwcs/cost.hpp"
#include "dwcs/heap.hpp"
#include "dwcs/types.hpp"
#include "sim/time.hpp"

namespace nistream::dwcs {

/// Read access to per-stream dynamic state, provided by the scheduler.
///
/// Deliberately non-virtual: the provider keeps every StreamView in one
/// contiguous vector and hands it to this base, so the two view() reads in
/// every heap-sift compare are direct indexed loads from a dense array —
/// no virtual dispatch, no pointer chase through per-stream state blocks.
/// The vector is held by pointer, so provider-side growth (reallocation)
/// needs no re-registration.
class StreamTable {
 public:
  explicit StreamTable(const std::vector<StreamView>& views)
      : views_{&views} {}
  [[nodiscard]] const StreamView& view(StreamId id) const {
    return (*views_)[id];
  }

 private:
  const std::vector<StreamView>* views_;
};

class ScheduleRepr {
 public:
  virtual ~ScheduleRepr() = default;
  virtual void insert(StreamId id) = 0;
  virtual void remove(StreamId id) = 0;
  virtual void update(StreamId id) = 0;
  /// Pre-size internal storage for `n` streams (never charged: capacity
  /// planning is host work, not part of the modeled scheduler).
  virtual void reserve(std::size_t /*n*/) {}
  /// The scheduler charged one service to `id` (its head was dispatched).
  /// Stateful rank policies (WFQ virtual time) advance their per-stream
  /// state here; everything else ignores it. Contract: the caller follows
  /// with update(id) or remove(id) before the next pick()/
  /// earliest_deadline(), so this hook never re-sifts on its own.
  virtual void on_charge(StreamId /*id*/) {}
  [[nodiscard]] virtual std::optional<StreamId> pick() = 0;
  [[nodiscard]] virtual std::optional<StreamId> earliest_deadline() = 0;
  [[nodiscard]] virtual const char* name() const = 0;
};

enum class ReprKind {
  kDualHeap,
  kSortedList,
  kFcfs,
  kCalendarQueue,
  kHierarchical,
  kPifo,
};

/// Rank policy of the PIFO engine (pifo.hpp). Consulted by make_repr for
/// ReprKind::kPifo (which rank struct to instantiate the engine with) and
/// ReprKind::kHierarchical (per-core engines plus the root winner order);
/// every other representation is DWCS-only and ignores it.
enum class PolicyKind {
  kDwcs,            // precedence rules 1-5 (comparator.hpp)
  kEdf,             // earliest deadline, id tie-break
  kStaticPriority,  // lowest stream id
  kRoundRobin,      // next backlogged id after the last served one
  kWfq,             // weighted fair queueing (SCFQ virtual finish times)
};

/// Knobs of the sharded multi-core representation (hierarchical.hpp). Lives
/// here so the repr-selection machinery (DwcsScheduler::Config, make_repr)
/// can carry it without pulling in the implementation header.
struct HierarchicalParams {
  /// Simulated NI cores; each runs one PifoRepr under the active rank
  /// policy over its stream shard. Shard assignment is a stable hash of the
  /// stream id (rebalance-free).
  std::uint32_t shards = 8;
  /// Modeled cost of shipping a shard's winner update across the on-chip
  /// interconnect to the root arbiter, charged per changed root entry.
  /// Default 0: decision-identity runs add no cycles the single-core
  /// dual-heap would not charge. Ablatable (hw::InterconnectParams).
  std::int64_t hop_cycles = 0;
};

[[nodiscard]] const char* to_string(ReprKind kind);
[[nodiscard]] const char* to_string(PolicyKind policy);

/// Create a representation. `table` and `cmp` must outlive the result.
/// `heap_base` is the simulated address of the representation's storage.
/// `hier` is consulted only for ReprKind::kHierarchical; `policy` for
/// kPifo and kHierarchical.
[[nodiscard]] std::unique_ptr<ScheduleRepr> make_repr(
    ReprKind kind, const StreamTable& table, const Comparator& cmp,
    CostHook& hook, SimAddr heap_base, const HierarchicalParams& hier = {},
    PolicyKind policy = PolicyKind::kDwcs);

}  // namespace nistream::dwcs
