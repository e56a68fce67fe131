// The programmable PIFO rank engine (Sivaraman et al., *Programmable Packet
// Scheduling*, PAPERS.md): every scheduling policy is a *rank function* over
// one push-in-first-out queue, not a hand-written representation class.
//
// A policy is a rank struct compiled into the engine at template-
// instantiation time — IndexedHeap is templated on the comparator, so every
// compare on the sift paths is a direct (typically inlined) call on the
// policy, exactly like the named DWCS comparators it generalizes:
//
//   struct MyRank {
//     static constexpr const char* kPifoName = "pifo-mine";
//     // Total order over backlogged streams ("a is served before b").
//     // MUST break final ties by stream id, or pick() is not deterministic.
//     bool precedes(const StreamView& a, StreamId ida,
//                   const StreamView& b, StreamId idb) const;
//     void on_insert(StreamId id, const StreamView& v);  // became backlogged
//     void on_charge(StreamId id, const StreamView& v);  // head dispatched
//   };
//
// Five policies ship below: DWCS (precedence rules 1-5, delegating to
// comparator.hpp so charged arithmetic is identical to every other DWCS
// representation), EDF, static priority, round-robin, and an SCFQ-style WFQ
// with integer virtual finish times. The named heap
// comparators of the dual-heap world (DeadlineIdLess / ToleranceLess /
// FullLess) are DERIVED from these rank structs — the rank functions are the
// single statement of each order.
//
// Decision identity: PifoRepr<DwcsRank> ranks by the same total order as
// DualHeapRepr's full-order shadow heap, so both pick() the unique minimum
// of the same order over the same set — decision-identical by construction,
// and differentially tested (tests/dwcs/pifo_test.cpp, 1500-round lock-step
// across seeds, flat and inside the hierarchical sharding layer).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "dwcs/comparator.hpp"
#include "dwcs/cost.hpp"
#include "dwcs/heap.hpp"
#include "dwcs/repr.hpp"
#include "dwcs/types.hpp"

namespace nistream::dwcs {

/// DWCS precedence rules 1-5 as a rank policy. Delegates to the Comparator
/// so charged arithmetic (rule-2 fraction compares in the selected
/// ArithMode) flows through the same cost hook as every other DWCS
/// representation.
struct DwcsRank {
  static constexpr const char* kPifoName = "pifo-dwcs";

  const Comparator* cmp;

  [[nodiscard]] bool precedes(const StreamView& a, StreamId ida,
                              const StreamView& b, StreamId idb) const {
    return cmp->precedes(a, ida, b, idb);
  }
  /// Rules 2-4 + id — the tolerance-domain suborder (Figure 4(a)'s
  /// loss-tolerance heap ranks by exactly this).
  [[nodiscard]] bool tolerance_precedes(const StreamView& a, StreamId ida,
                                        const StreamView& b,
                                        StreamId idb) const {
    return cmp->tolerance_precedes(a, ida, b, idb);
  }
  void on_insert(StreamId, const StreamView&) {}
  void on_charge(StreamId, const StreamView&) {}
};

/// Earliest-deadline-first: rule 1 alone, id tie-break. Uncharged (the
/// deadline compare cost is charged by callers that walk the structures, not
/// by their maintenance — same licence as the Figure 4(a) deadline heap).
struct EdfRank {
  static constexpr const char* kPifoName = "pifo-edf";

  [[nodiscard]] bool precedes(const StreamView& a, StreamId ida,
                              const StreamView& b, StreamId idb) const {
    if (a.next_deadline != b.next_deadline) {
      return a.next_deadline < b.next_deadline;
    }
    return ida < idb;
  }
  void on_insert(StreamId, const StreamView&) {}
  void on_charge(StreamId, const StreamView&) {}
};

/// Fixed priority by creation order: stream 0 most important.
struct StaticPriorityRank {
  static constexpr const char* kPifoName = "pifo-sp";

  [[nodiscard]] bool precedes(const StreamView&, StreamId ida,
                              const StreamView&, StreamId idb) const {
    return ida < idb;
  }
  void on_insert(StreamId, const StreamView&) {}
  void on_charge(StreamId, const StreamView&) {}
};

/// Shared round-robin cycle position. Separate from the rank struct for the
/// same reason as WfqState below: the hierarchical layer hands every per-core
/// engine (and its own root winner order) the SAME position.
struct RoundRobinState {
  std::vector<std::uint64_t> round;  // per-stream round it is served in
  std::uint64_t current = 0;         // round of the last served head
  StreamId cursor = 0;               // last served id + 1
};

/// Round-robin over backlogged streams, ranked by (round, id). A stream at
/// or past the cursor waits for the current round, one before it for the
/// next, so the smallest key is the first backlogged id in cyclic order
/// from the cursor: the cursor scan of a classic round-robin, kept in a heap.
/// Only the served stream's key moves (it joins the next round).
///
/// One case differs from a cursor that wraps modulo the stream count: a
/// stream created after the cycle has passed the highest id is served in
/// the current cycle here, and in the next one by the wrapping cursor. No
/// caller creates streams mid-run under round-robin.
struct RoundRobinRank {
  static constexpr const char* kPifoName = "pifo-rr";

  std::shared_ptr<RoundRobinState> state = std::make_shared<RoundRobinState>();

  void on_insert(StreamId id, const StreamView&) {
    auto& st = *state;
    if (id >= st.round.size()) st.round.resize(id + 1, 0);
    st.round[id] = id >= st.cursor ? st.current : st.current + 1;
  }
  void on_charge(StreamId id, const StreamView&) {
    auto& st = *state;
    assert(id < st.round.size());
    st.current = st.round[id];
    st.cursor = id + 1;
    st.round[id] = st.current + 1;
  }
  [[nodiscard]] bool precedes(const StreamView&, StreamId ida,
                              const StreamView&, StreamId idb) const {
    const auto& st = *state;
    assert(ida < st.round.size() && idb < st.round.size());
    if (st.round[ida] != st.round[idb]) return st.round[ida] < st.round[idb];
    return ida < idb;
  }
};

/// Shared WFQ virtual-time ledger. Separate from the rank struct so the
/// hierarchical layer can hand every per-core engine (and its own root
/// winner order) the SAME clock — per-stream finish tags are globally
/// comparable across shards.
struct WfqState {
  std::vector<std::uint64_t> finish;  // per-stream virtual finish tag
  std::uint64_t vtime = 0;            // finish tag of the last served head
};

/// WFQ-style rank: SCFQ (self-clocked fair queueing) virtual finish times.
/// The system virtual clock is the finish tag of the packet last serviced —
/// no real-time fluid reference needed, integers all the way down.
///
/// Weight is the stream's outstanding on-time obligation y'-x' (how many
/// on-time services its current window still requires): a stream allowed 3
/// losses per 8 needs 5 on-time slots per window and weighs 5. Each head
/// costs kScale/weight virtual time, so service converges to
/// weight-proportional shares (asserted in tests/dwcs/pifo_test.cpp).
struct WfqRank {
  static constexpr const char* kPifoName = "pifo-wfq";
  /// Virtual length of one head. Large so integer division by any sane
  /// weight keeps precision; divisible by small weights exactly.
  static constexpr std::uint64_t kScale = 1u << 20;

  std::shared_ptr<WfqState> state = std::make_shared<WfqState>();

  [[nodiscard]] static std::uint64_t weight(const StreamView& v) {
    const std::int64_t w = v.current.y - v.current.x;
    return w > 0 ? static_cast<std::uint64_t>(w) : 1;
  }

  /// A stream (re)entered the backlog. A flow that lagged behind the clock
  /// resumes at the clock, not at its stale tag — idle time is forfeited,
  /// never banked into a catch-up burst.
  void on_insert(StreamId id, const StreamView& v) {
    auto& st = *state;
    if (id >= st.finish.size()) st.finish.resize(id + 1, 0);
    st.finish[id] = std::max(st.finish[id], st.vtime) + kScale / weight(v);
  }

  /// The head was served: the clock advances to its tag and the stream's
  /// next head finishes one quantum later (back-to-back heads queue at the
  /// flow's own finish tag, which is never behind the clock).
  void on_charge(StreamId id, const StreamView& v) {
    auto& st = *state;
    assert(id < st.finish.size());
    st.vtime = std::max(st.vtime, st.finish[id]);
    st.finish[id] += kScale / weight(v);
  }

  [[nodiscard]] bool precedes(const StreamView&, StreamId ida,
                              const StreamView&, StreamId idb) const {
    const auto& st = *state;
    assert(ida < st.finish.size() && idb < st.finish.size());
    const std::uint64_t fa = st.finish[ida];
    const std::uint64_t fb = st.finish[idb];
    if (fa != fb) return fa < fb;
    return ida < idb;
  }
};

// ---------------------------------------------------------------------------
// Named heap comparators, derived from the rank structs above. These are the
// orderings the dual-heap world is built from (dual_heap.hpp, repr.cpp,
// hierarchical.cpp); each is a one-line delegation so the rank function is
// stated exactly once.

/// Rule-1 ordering with id tie-break (the Figure 4(a) deadline heap) — the
/// EDF rank. Deliberately uncharged, as in the paper model.
struct DeadlineIdLess {
  const StreamTable* table;
  bool operator()(StreamId a, StreamId b) const {
    return EdfRank{}.precedes(table->view(a), a, table->view(b), b);
  }
};

/// Tolerance-domain ordering (rules 2-4 + id), charged through `cmp` — the
/// DWCS rank's tolerance suborder.
struct ToleranceLess {
  const StreamTable* table;
  const Comparator* cmp;
  bool operator()(StreamId a, StreamId b) const {
    return DwcsRank{cmp}.tolerance_precedes(table->view(a), a, table->view(b),
                                            b);
  }
};

/// Full precedence (rules 1-5), charged through `cmp` — the DWCS rank.
struct FullLess {
  const StreamTable* table;
  const Comparator* cmp;
  bool operator()(StreamId a, StreamId b) const {
    return DwcsRank{cmp}.precedes(table->view(a), a, table->view(b), b);
  }
};

/// IndexedHeap comparator over any rank policy: two dense view() loads plus
/// one direct policy call per compare, same shape as the named comparators.
template <class Policy>
struct RankLess {
  const StreamTable* table;
  const Policy* policy;
  bool operator()(StreamId a, StreamId b) const {
    return policy->precedes(table->view(a), a, table->view(b), b);
  }
};

/// Position arrays that PIFO engines over disjoint stream sets (the
/// hierarchical scheduler's cores) share: one per heap kind for all of them,
/// instead of one per engine.
struct PifoPositions {
  HeapPositions rank;
  HeapPositions deadline;
};

/// The engine: one heap under the policy's rank order answers pick(); a
/// second heap under the rule-1+id order answers earliest_deadline() so the
/// scheduler's late-packet machinery works under ANY rank policy (late
/// processing is an analysis-layer concern, not a policy concern — §3.1.1's
/// decoupling of scheduling analysis from schedule representation).
///
/// The rank heap sits at `base` and the deadline heap at `base + 0x10000`.
/// Under DwcsRank this is the single full-order heap that the dual heap's
/// Figure 4(a) split is measured against. `shared`, when given, holds both
/// heaps' positions.
template <class Policy>
class PifoRepr final : public ScheduleRepr {
 public:
  PifoRepr(const StreamTable& table, Policy policy, CostHook& hook,
           SimAddr base, PifoPositions* shared = nullptr)
      : table_{table},
        policy_{std::move(policy)},
        rank_heap_{RankLess<Policy>{&table, &policy_}, hook, base,
                   shared != nullptr ? &shared->rank : nullptr},
        deadline_heap_{DeadlineIdLess{&table}, hook, base + 0x10000,
                       shared != nullptr ? &shared->deadline : nullptr} {}

  void insert(StreamId id) override {
    policy_.on_insert(id, table_.view(id));
    rank_heap_.push(id);
    deadline_heap_.push(id);
  }
  void remove(StreamId id) override {
    rank_heap_.erase(id);
    deadline_heap_.erase(id);
  }
  void update(StreamId id) override {
    rank_heap_.update(id);
    deadline_heap_.update(id);
  }
  void reserve(std::size_t n) override {
    rank_heap_.reserve(n);
    deadline_heap_.reserve(n);
  }
  void on_charge(StreamId id) override {
    policy_.on_charge(id, table_.view(id));
    // No re-sift: the ScheduleRepr contract has the caller update()/remove()
    // the charged stream before the next query.
  }

  std::optional<StreamId> pick() override { return rank_heap_.top(); }
  std::optional<StreamId> earliest_deadline() override {
    return deadline_heap_.top();
  }
  const char* name() const override { return Policy::kPifoName; }

 private:
  const StreamTable& table_;
  Policy policy_;  // before rank_heap_: its comparator captures &policy_
  IndexedHeap<RankLess<Policy>> rank_heap_;
  IndexedHeap<DeadlineIdLess> deadline_heap_;
};

}  // namespace nistream::dwcs
