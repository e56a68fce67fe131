// Differential representation test — the safety net for the tie-break
// machinery.
//
// All ReprKinds are driven in lock-step through 1k-round randomized
// enqueue/schedule workloads against one shared stream table — including
// the PIFO rank engine under the DWCS rank and the hierarchical (sharded)
// representation at 1 shard (the degenerate case that must collapse to
// dual-heap behavior) and 3 shards (odd count, so the splitmix64 shard hash
// is exercised off the power-of-two path). Every round:
//   * pick() must return the identical stream across all attribute-aware
//     representations (dual-heap, sorted-list, calendar-queue, pifo,
//     hierarchical x shards) — they are interchangeable structures
//     under one policy (§3.1.1), so the dispatched stream sequence must be
//     identical;
//   * earliest_deadline() must agree across ALL representations,
//     FCFS included (its earliest-deadline contract is attribute-honest
//     even though its pick() deliberately ignores the precedence rules).
//
// Deadline ties are engineered to be frequent (few distinct periods, grid-
// aligned deadlines) so the dual-heap slow path and the calendar-queue
// bucket scans are exercised constantly.
#include "dwcs/repr.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "lockstep.hpp"
#include "sim/random.hpp"

namespace nistream::dwcs {
namespace {

using sim::Time;

struct Harness {
  FakeTable table;
  Comparator cmp{ArithMode::kFixedPoint, null_cost_hook()};
  std::vector<std::unique_ptr<ScheduleRepr>> reprs;
  std::vector<bool> present;

  // FCFS is deliberately LAST: every repr before it is attribute-aware and
  // must agree on pick(); FCFS only joins the earliest_deadline() check.
  Harness() {
    for (const auto kind :
         {ReprKind::kDualHeap, ReprKind::kSortedList, ReprKind::kCalendarQueue,
          ReprKind::kPifo}) {
      reprs.push_back(
          make_repr(kind, table, cmp, null_cost_hook(), 0x0100'0000));
    }
    for (const std::uint32_t shards : {1u, 3u}) {
      reprs.push_back(make_repr(ReprKind::kHierarchical, table, cmp,
                                null_cost_hook(), 0x0100'0000,
                                HierarchicalParams{.shards = shards}));
    }
    reprs.push_back(
        make_repr(ReprKind::kFcfs, table, cmp, null_cost_hook(), 0x0100'0000));
  }

  void insert(StreamId id) {
    for (auto& r : reprs) r->insert(id);
    present[id] = true;
  }
  void remove(StreamId id) {
    for (auto& r : reprs) r->remove(id);
    present[id] = false;
  }
  void update(StreamId id) {
    for (auto& r : reprs) r->update(id);
  }
};

TEST(ReprDifferential, RandomizedLockStep) {
  for (const std::uint64_t seed : {7u, 99u, 1234u}) {
    Harness h;
    sim::Rng rng{seed};

    // Seed population: 24 streams on a coarse deadline grid (4 periods) so
    // ties are the common case, with random tolerances.
    const auto random_view = [&](Time now) {
      StreamView v;
      const std::int64_t y = 1 + static_cast<std::int64_t>(rng.below(6));
      const std::int64_t x = static_cast<std::int64_t>(
          rng.below(static_cast<std::uint64_t>(y + 1)));
      v.current = {x, y};  // fresh stream: current == original constraint
      const int period_ms = 10 * (1 + static_cast<int>(rng.below(4)));
      v.next_deadline = now + Time::ms(period_ms);
      v.head_enqueued_at = now;
      return v;
    };
    Time now = Time::zero();
    for (int i = 0; i < 24; ++i) {
      const auto id = h.table.add(random_view(now));
      h.present.push_back(false);
      h.insert(id);
    }

    std::vector<StreamId> dispatched;
    int backlogged = 24;
    for (int round = 0; round < 1000; ++round) {
      now += Time::ms(1 + static_cast<double>(rng.below(5)));

      // Occasionally add a brand-new stream or toggle an existing one.
      const auto op = rng.below(10);
      if (op == 0 && h.table.size() < 64) {
        const auto id = h.table.add(random_view(now));
        h.present.push_back(false);
        h.insert(id);
        ++backlogged;
      } else if (op == 1) {
        const auto id = static_cast<StreamId>(rng.below(h.table.size()));
        if (h.present[id] && backlogged > 2) {
          h.remove(id);
          --backlogged;
        } else if (!h.present[id]) {
          h.table.reset(id, random_view(now));
          h.insert(id);
          ++backlogged;
        }
      } else if (op == 2) {
        // Tolerance-only churn (exercises update() with unchanged deadline —
        // the calendar queue's same-bucket early-out).
        const auto id = static_cast<StreamId>(rng.below(h.table.size()));
        if (h.present[id]) {
          auto& v = h.table.mutable_view(id);
          const std::int64_t y = 1 + static_cast<std::int64_t>(rng.below(6));
          v.current = {static_cast<std::int64_t>(
                           rng.below(static_cast<std::uint64_t>(y + 1))),
                       y};
          h.update(id);
        }
      }

      // Lock-step queries. All reprs but the trailing FCFS are
      // attribute-aware and must agree on pick().
      std::optional<StreamId> pick0;
      for (std::size_t k = 0; k + 1 < h.reprs.size(); ++k) {
        const auto p = h.reprs[k]->pick();
        if (k == 0) {
          pick0 = p;
        } else {
          ASSERT_EQ(p, pick0) << "seed " << seed << " round " << round
                              << ": " << h.reprs[k]->name() << " vs "
                              << h.reprs[0]->name();
        }
      }
      std::optional<StreamId> ed0;
      for (std::size_t k = 0; k < h.reprs.size(); ++k) {  // all, FCFS too
        const auto e = h.reprs[k]->earliest_deadline();
        if (k == 0) {
          ed0 = e;
        } else {
          ASSERT_EQ(e, ed0) << "seed " << seed << " round " << round
                            << ": earliest_deadline of " << h.reprs[k]->name();
        }
      }

      // "Dispatch" the agreed pick: rule-(A) window adjustment + deadline
      // advance, exactly as the scheduler would, then update every repr.
      if (pick0) {
        dispatched.push_back(*pick0);
        h.table.rule_a(*pick0);
        h.table.mutable_view(*pick0).next_deadline +=
            Time::ms(10 * (1 + static_cast<double>(rng.below(4))));
        h.update(*pick0);
      }
    }
    // The attribute-aware reprs agreed on every round, so `dispatched`
    // IS the common dispatch sequence; sanity-check it is non-trivial.
    ASSERT_GT(dispatched.size(), 900u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace nistream::dwcs
