// The paper's Figure 4(a) dual-heap representation.
//
// It is the flat, single-core ReprKind::kDualHeap that Tables 1-3 and the
// session server run, and the reference the tests hold the PIFO engine and
// the hierarchical scheduler to. The hierarchical scheduler's cores are PIFO
// engines (pifo.hpp), not dual heaps: a charged pick() here replays the
// modeled O(n) tie scan, which is the paper's cost on one core but would
// make each simulated core's decision cost grow with its shard.
//
// The named heap comparators this class is built from (DeadlineIdLess,
// ToleranceLess, FullLess) moved to pifo.hpp with the rank-engine work:
// they are now one-line derivations of the DWCS/EDF rank structs, so each
// ordering is stated exactly once. Charges still flow through the Comparator
// they hold: a comparator built over the scheduler's hook charges the
// modeled arithmetic, one built over the null hook orders silently.
#pragma once

#include <cassert>
#include <optional>

#include "dwcs/comparator.hpp"
#include "dwcs/cost.hpp"
#include "dwcs/heap.hpp"
#include "dwcs/pifo.hpp"
#include "dwcs/repr.hpp"
#include "dwcs/types.hpp"

namespace nistream::dwcs {

/// Figure 4(a): deadline heap + loss-tolerance heap. The deadline heap
/// resolves rule 1; ties at the minimum deadline are broken by the tolerance
/// ordering, which the tolerance heap keeps ready (its top is the globally
/// most tolerance-urgent stream, so the common all-deadlines-equal case is
/// O(1) after the heaps are maintained).
///
/// Tie-break slow path: alongside the two modeled heaps, a third,
/// *uncharged* heap (order_) maintains the full rule-1..5 order, so when the
/// tolerance-heap top does not share the minimum deadline, the winner is its
/// top — O(1), instead of the O(n) scan of the raw deadline heap the model
/// describes. Two-clock discipline (docs/performance.md): when an accounted
/// hook is attached, the modeled O(n) tie scan is still *replayed* so every
/// charged cycle/word of Tables 1-2 stays bit-identical; on null-hook
/// (wall-clock) runs the replay is skipped.
class DualHeapRepr final : public ScheduleRepr {
 public:
  DualHeapRepr(const StreamTable& table, const Comparator& cmp, CostHook& hook,
               SimAddr base)
      : table_{table},
        cmp_{cmp},
        hook_{&hook},
        charged_{hook.accounted()},
        quiet_cmp_{cmp.mode(), null_cost_hook()},
        deadline_heap_{DeadlineIdLess{&table}, hook, base},
        tolerance_heap_{ToleranceLess{&table, &cmp}, hook, base + 0x10000},
        order_{FullLess{&table, &quiet_cmp_}, null_cost_hook(), 0} {}

  // On wall-clock (null hook) runs the tolerance heap is never consulted:
  // pick() goes straight to the full-order shadow heap, whose top is exactly
  // the dual-heap answer (rule 1, tie-broken by the tolerance order — the
  // charged replay below asserts this equivalence on instrumented runs). So
  // its maintenance — the most expensive of the three heaps, a fraction
  // compare per sift level — is skipped outright when nothing is charged.
  void insert(StreamId id) override {
    deadline_heap_.push(id);
    if (charged_) tolerance_heap_.push(id);
    order_.push(id);
  }
  void remove(StreamId id) override {
    deadline_heap_.erase(id);
    if (charged_) tolerance_heap_.erase(id);
    order_.erase(id);
  }
  void update(StreamId id) override {
    deadline_heap_.update(id);
    if (charged_) tolerance_heap_.update(id);
    order_.update(id);
  }
  void reserve(std::size_t n) override {
    deadline_heap_.reserve(n);
    if (charged_) tolerance_heap_.reserve(n);
    order_.reserve(n);
  }

  std::optional<StreamId> pick() override {
    if (!charged_) {
      if (order_.empty()) return std::nullopt;
      return order_.top_unchecked();
    }
    const auto top = deadline_heap_.top();
    if (!top) return std::nullopt;
    // Fast path: if the tolerance heap's top shares the minimum deadline it
    // is the answer outright (it beats every other deadline-tied stream in
    // the tolerance order).
    const sim::Time dmin = table_.view(*top).next_deadline;
    const auto tol_top = tolerance_heap_.top();
    if (tol_top && table_.view(*tol_top).next_deadline == dmin) return tol_top;
    // Slow path: the full-order shadow heap has the deadline-tie winner on
    // top (its order is deadline-major, then tolerance) — O(1).
    const StreamId best = order_.top_unchecked();
    if (charged_) {
      // Replay the modeled tie scan of the raw deadline heap so the charged
      // cost stream (memory words, tolerance compares) is bit-identical to
      // the pre-optimization implementation that Tables 1-2 were calibrated
      // against. Instrumented runs are small-n paper reproductions, so the
      // O(n) here is irrelevant to wall-clock scale.
      StreamId model_best = *top;
      for (std::size_t i = 0; i < deadline_heap_.raw().size(); ++i) {
        deadline_heap_.touch(i);
        const StreamId s = deadline_heap_.raw()[i];
        if (s == model_best) continue;
        if (table_.view(s).next_deadline != dmin) continue;
        if (cmp_.tolerance_precedes(table_.view(s), s, table_.view(model_best),
                                    model_best)) {
          model_best = s;
        }
      }
      assert(model_best == best);
      (void)model_best;
    }
    return best;
  }

  std::optional<StreamId> earliest_deadline() override {
    return deadline_heap_.top();
  }

  const char* name() const override { return "dual-heap"; }

 private:
  const StreamTable& table_;
  const Comparator& cmp_;
  CostHook* hook_;
  bool charged_;  // cached hook.accounted(); false only for the null hook
  Comparator quiet_cmp_;  // same arithmetic mode, null hook (order_ only)
  IndexedHeap<DeadlineIdLess> deadline_heap_;
  IndexedHeap<ToleranceLess> tolerance_heap_;
  IndexedHeap<FullLess> order_;
};

}  // namespace nistream::dwcs
