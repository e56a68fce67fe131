// PIFO rank engine contract tests.
//
// The load-bearing property is DECISION IDENTITY for the DWCS rank:
// PifoRepr<DwcsRank> ranks by the same rule-1..5 total order as
// DualHeapRepr's full-order shadow heap, so both must pick() the identical
// stream on every round. Inside the hierarchical sharding layer, PIFO cores
// under EDF, static priority and round-robin must decide exactly as one flat
// PIFO engine under the same policy, at every shard count. The WFQ rank is
// stateful (virtual finish tags), so its tests assert the fair-queueing
// contract instead: service counts converge to weight-proportional shares,
// and an idle flow rejoins at the clock with no banked catch-up burst.
//
// EDF and round-robin run as DwcsScheduler policies. On lossy streams they
// decide exactly as a plain deadline scan and a plain cursor scan over the
// same queues (the differential tests below), and under overload both break
// the window constraint that DWCS keeps (PolicyComparison).
#include "dwcs/pifo.hpp"

#include <gtest/gtest.h>

#include <array>
#include <deque>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "dwcs/dual_heap.hpp"
#include "dwcs/hierarchical.hpp"
#include "dwcs/monitor.hpp"
#include "dwcs/scheduler.hpp"
#include "lockstep.hpp"
#include "sim/random.hpp"

namespace nistream::dwcs {
namespace {

using sim::Time;

// ---------------------------------------------------------------------------
// DWCS-rank decision identity vs DualHeapRepr.
// ---------------------------------------------------------------------------

TEST(PifoIdentity, DwcsRankMatchesDualHeap) {
  // Same seeds as the 5-way differential test.
  for (const std::uint64_t seed : {7u, 99u, 1234u}) {
    FakeTable table;
    Comparator cmp{ArithMode::kFixedPoint, null_cost_hook()};
    DualHeapRepr reference{table, cmp, null_cost_hook(), 0x0100'0000};
    const auto pifo = make_repr(ReprKind::kPifo, table, cmp, null_cost_hook(),
                                0x0200'0000);
    EXPECT_STREQ(pifo->name(), "pifo-dwcs");
    EXPECT_GT(run_lockstep(table, reference, *pifo, seed, "flat"), 1000)
        << "seed " << seed;
  }
}

TEST(PifoIdentity, HierarchicalPifoCoresMatchFlatPifo) {
  // The sharding layer over PIFO cores must be decision-identical to one
  // flat PIFO engine under the same policy: EDF, static priority and
  // round-robin are total orders, so per-core order plus the root arbiter
  // reproduce the flat order at any shard count. Round-robin's cores share
  // one cycle position, as WFQ's share one clock.
  for (const PolicyKind policy : {PolicyKind::kEdf, PolicyKind::kStaticPriority,
                                  PolicyKind::kRoundRobin}) {
    for (const std::uint32_t shards : {1u, 4u, 16u}) {
      for (const std::uint64_t seed : {7u, 99u, 1234u}) {
        FakeTable table;
        Comparator cmp{ArithMode::kFixedPoint, null_cost_hook()};
        const auto reference =
            make_repr(ReprKind::kPifo, table, cmp, null_cost_hook(),
                      0x0100'0000, {}, policy);
        HierarchicalScheduler sharded{table,
                                      cmp,
                                      null_cost_hook(),
                                      0x0200'0000,
                                      HierarchicalParams{.shards = shards},
                                      policy};
        EXPECT_EQ(sharded.shards(), shards);
        EXPECT_GT(run_lockstep(table, *reference, sharded, seed,
                               to_string(policy)),
                  1000)
            << to_string(policy) << " shards " << shards << " seed " << seed;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Non-DWCS ranks: order contracts.
// ---------------------------------------------------------------------------

TEST(PifoRanks, EdfOrdersByDeadlineThenId) {
  FakeTable table;
  Comparator cmp{ArithMode::kFixedPoint, null_cost_hook()};
  const auto repr = make_repr(ReprKind::kPifo, table, cmp, null_cost_hook(),
                              0x0100'0000, {}, PolicyKind::kEdf);
  EXPECT_STREQ(repr->name(), "pifo-edf");
  StreamView v;
  v.current = {1, 4};
  v.next_deadline = Time::ms(30);
  const auto late = table.add(v);  // id 0, deadline 30
  v.next_deadline = Time::ms(10);
  const auto soon = table.add(v);  // id 1, deadline 10
  v.current = {0, 9};              // most urgent tolerance, same deadline 10
  const auto tied = table.add(v);  // id 2
  for (StreamId id = 0; id < 3; ++id) repr->insert(id);
  // Deadline wins over any tolerance; the 10ms tie breaks to the lower id.
  EXPECT_EQ(repr->pick(), std::optional<StreamId>{soon});
  repr->remove(soon);
  EXPECT_EQ(repr->pick(), std::optional<StreamId>{tied});
  repr->remove(tied);
  EXPECT_EQ(repr->pick(), std::optional<StreamId>{late});
}

TEST(PifoRanks, StaticPriorityOrdersByIdAlone) {
  FakeTable table;
  Comparator cmp{ArithMode::kFixedPoint, null_cost_hook()};
  const auto repr = make_repr(ReprKind::kPifo, table, cmp, null_cost_hook(),
                              0x0100'0000, {}, PolicyKind::kStaticPriority);
  EXPECT_STREQ(repr->name(), "pifo-sp");
  StreamView v;
  v.current = {1, 4};
  v.next_deadline = Time::ms(5);  // earliest deadline, highest id
  (void)table.add(v);
  v.next_deadline = Time::ms(50);
  (void)table.add(v);
  repr->insert(1);
  repr->insert(0);
  EXPECT_EQ(repr->pick(), std::optional<StreamId>{0});
  // earliest_deadline() stays attribute-honest under every policy.
  EXPECT_EQ(repr->earliest_deadline(), std::optional<StreamId>{0});
  repr->remove(0);
  EXPECT_EQ(repr->pick(), std::optional<StreamId>{1});
}

TEST(PolicyKindNames, Stable) {
  EXPECT_STREQ(to_string(PolicyKind::kDwcs), "dwcs");
  EXPECT_STREQ(to_string(PolicyKind::kEdf), "edf");
  EXPECT_STREQ(to_string(PolicyKind::kStaticPriority), "static-priority");
  EXPECT_STREQ(to_string(PolicyKind::kRoundRobin), "round-robin");
  EXPECT_STREQ(to_string(PolicyKind::kWfq), "wfq");
  EXPECT_STREQ(to_string(ReprKind::kPifo), "pifo");
}

// ---------------------------------------------------------------------------
// WFQ rank: fair-queueing contract.
// ---------------------------------------------------------------------------

/// Serve `rounds` picks from always-backlogged streams, following the
/// scheduler's dispatch pattern (pick -> on_charge -> update), and return
/// per-stream service counts.
std::vector<int> serve(ScheduleRepr& repr, FakeTable& table, int rounds) {
  std::vector<int> count(table.size(), 0);
  for (int i = 0; i < rounds; ++i) {
    const auto p = repr.pick();
    if (!p) break;
    repr.on_charge(*p);
    repr.update(*p);
    ++count[*p];
  }
  return count;
}

TEST(WfqRank, ServiceConvergesToWeightProportionalShares) {
  FakeTable table;
  Comparator cmp{ArithMode::kFixedPoint, null_cost_hook()};
  const auto repr = make_repr(ReprKind::kPifo, table, cmp, null_cost_hook(),
                              0x0100'0000, {}, PolicyKind::kWfq);
  EXPECT_STREQ(repr->name(), "pifo-wfq");
  // Weight is the outstanding on-time obligation y'-x': 1, 2, and 4.
  StreamView v;
  v.next_deadline = Time::ms(10);
  for (const std::int64_t y : {1, 2, 4}) {
    v.current = {0, y};
    repr->insert(table.add(v));
  }
  const auto count = serve(*repr, table, 7000);
  // kScale is divisible by every weight, so shares are exact up to the
  // rotation order within one virtual round: 1000/2000/4000.
  EXPECT_NEAR(count[0], 1000, 2);
  EXPECT_NEAR(count[1], 2000, 2);
  EXPECT_NEAR(count[2], 4000, 2);
}

TEST(WfqRank, RejoiningFlowGetsNoCatchUpBurst) {
  FakeTable table;
  Comparator cmp{ArithMode::kFixedPoint, null_cost_hook()};
  const auto repr = make_repr(ReprKind::kPifo, table, cmp, null_cost_hook(),
                              0x0100'0000, {}, PolicyKind::kWfq);
  StreamView v;
  v.next_deadline = Time::ms(10);
  v.current = {0, 1};  // equal weights
  const auto a = table.add(v);
  const auto b = table.add(v);
  repr->insert(a);
  // b idles while a is served 1000 times: a's finish tag (and the clock)
  // races ahead.
  (void)serve(*repr, table, 1000);
  repr->insert(b);
  // SCFQ admits b at the current clock, not at tag 0 — so b gets its fair
  // half from here on, not a 1000-service catch-up monopoly.
  const auto count = serve(*repr, table, 200);
  EXPECT_GE(count[b], 99);
  EXPECT_LE(count[b], 101);
  EXPECT_GE(count[a], 99);
}

TEST(WfqRank, HierarchicalCoresShareOneClock) {
  // The sharded machine hands every core (and the root) the same WfqState:
  // finish tags stay globally comparable, so weight-proportional shares
  // hold across shard boundaries too.
  FakeTable table;
  Comparator cmp{ArithMode::kFixedPoint, null_cost_hook()};
  HierarchicalScheduler sharded{table, cmp, null_cost_hook(), 0x0100'0000,
                                HierarchicalParams{.shards = 4},
                                PolicyKind::kWfq};
  StreamView v;
  v.next_deadline = Time::ms(10);
  for (const std::int64_t y : {1, 2, 4}) {
    v.current = {0, y};
    sharded.insert(table.add(v));
  }
  const auto count = serve(sharded, table, 7000);
  EXPECT_NEAR(count[0], 1000, 2);
  EXPECT_NEAR(count[1], 2000, 2);
  EXPECT_NEAR(count[2], 4000, 2);
}

// ---------------------------------------------------------------------------
// EDF and round-robin as DwcsScheduler policies.
// ---------------------------------------------------------------------------

DwcsScheduler::Config pifo(PolicyKind policy) {
  return {.repr = ReprKind::kPifo, .policy = policy};
}

FrameDescriptor frame(std::uint64_t id, Time at) {
  return FrameDescriptor{.frame_id = id, .bytes = 1000,
                         .type = mpeg::FrameType::kP, .enqueued_at = at};
}

TEST(Edf, PicksEarliestDeadline) {
  DwcsScheduler s{pifo(PolicyKind::kEdf)};
  const auto slow = s.create_stream({.tolerance = {1, 2}, .period = Time::ms(50)},
                                    Time::zero());
  const auto fast = s.create_stream({.tolerance = {1, 2}, .period = Time::ms(10)},
                                    Time::zero());
  s.enqueue(slow, frame(0, Time::zero()), Time::zero());
  s.enqueue(fast, frame(1, Time::zero()), Time::zero());
  const auto d = s.schedule_next(Time::zero());
  ASSERT_TRUE(d);
  EXPECT_EQ(d->stream, fast);
}

TEST(Edf, DropsLateLossyPackets) {
  DwcsScheduler s{pifo(PolicyKind::kEdf)};
  const auto id = s.create_stream(
      {.tolerance = {1, 2}, .period = Time::ms(10), .lossy = true},
      Time::zero());
  s.enqueue(id, frame(0, Time::zero()), Time::zero());
  EXPECT_FALSE(s.schedule_next(Time::ms(100)).has_value());
  EXPECT_EQ(s.stats(id).dropped, 1u);
}

TEST(RoundRobin, CyclesThroughBackloggedStreams) {
  DwcsScheduler s{pifo(PolicyKind::kRoundRobin)};
  std::vector<StreamId> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(s.create_stream(
        {.tolerance = {1, 2}, .period = Time::sec(10)}, Time::zero()));
    s.enqueue(ids.back(), frame(static_cast<std::uint64_t>(i), Time::zero()),
              Time::zero());
    s.enqueue(ids.back(), frame(static_cast<std::uint64_t>(10 + i), Time::zero()),
              Time::zero());
  }
  std::vector<StreamId> order;
  for (int i = 0; i < 6; ++i) {
    const auto d = s.schedule_next(Time::zero());
    ASSERT_TRUE(d);
    order.push_back(d->stream);
  }
  EXPECT_EQ(order, (std::vector<StreamId>{ids[0], ids[1], ids[2], ids[0],
                                          ids[1], ids[2]}));
}

TEST(RoundRobin, SkipsEmptyStreams) {
  DwcsScheduler s{pifo(PolicyKind::kRoundRobin)};
  s.create_stream({.tolerance = {1, 2}, .period = Time::sec(10)}, Time::zero());
  const auto b = s.create_stream({.tolerance = {1, 2}, .period = Time::sec(10)},
                                 Time::zero());
  s.enqueue(b, frame(0, Time::zero()), Time::zero());
  const auto d = s.schedule_next(Time::zero());
  ASSERT_TRUE(d);
  EXPECT_EQ(d->stream, b);
}

/// The attribute-blind schedulers that EDF and round-robin replaced, over
/// lossy streams: drop every late head, then serve the earliest deadline
/// (EDF, lowest id on ties) or the first backlogged stream in cyclic order
/// from the cursor (round-robin), and advance its deadline one period.
struct ScanReference {
  struct Stream {
    std::deque<std::uint64_t> frames;
    Time deadline, period;
    std::uint64_t dropped = 0;
  };
  PolicyKind policy;
  std::vector<Stream> streams;
  StreamId cursor = 0;  // stays 0 under EDF: the scan runs in id order

  std::optional<StreamId> pick() {
    const auto n = static_cast<StreamId>(streams.size());
    std::optional<StreamId> best;
    for (StreamId k = 0; k < n; ++k) {
      const StreamId i = (cursor + k) % n;
      if (streams[i].frames.empty()) continue;
      if (policy == PolicyKind::kRoundRobin) {
        cursor = (i + 1) % n;
        return i;
      }
      if (!best || streams[i].deadline < streams[*best].deadline) best = i;
    }
    return best;
  }
  /// The frame served at `now`, or nullopt when nothing is backlogged.
  std::optional<std::pair<StreamId, std::uint64_t>> schedule_next(Time now) {
    for (Stream& s : streams) {
      for (; !s.frames.empty() && s.deadline < now; s.deadline += s.period) {
        s.frames.pop_front();
        ++s.dropped;
      }
    }
    const auto id = pick();
    if (!id) return std::nullopt;
    Stream& s = streams[*id];
    const std::uint64_t f = s.frames.front();
    s.frames.pop_front();
    s.deadline += s.period;
    return std::pair{*id, f};
  }
};

/// Runs 300 seeded lossy workloads through DwcsScheduler under `policy`,
/// flat and on 4 hierarchical shards, in lock-step with the scan reference.
/// Every stream exists before the first frame. Each stream gets a burst of
/// 0-3 frames every 20 ms and the scheduler serves half as many heads as
/// there are streams per 5 ms on average, so heads go late and drop, and
/// streams leave the backlog and rejoin it. Each decision must serve the
/// same frame, and each stream must drop the same number of heads.
void expect_matches_scan(PolicyKind policy) {
  for (const DwcsScheduler::Config& config :
       {pifo(policy), DwcsScheduler::Config{.repr = ReprKind::kHierarchical,
                                            .policy = policy,
                                            .hierarchical = {.shards = 4}}}) {
    int compared = 0;
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
      DwcsScheduler sched{config};
      ScanReference ref{.policy = policy};
      sim::Rng rng{seed};
      const auto n = static_cast<StreamId>(2 + rng.below(9));
      for (StreamId i = 0; i < n; ++i) {
        const auto period =
            Time::ms(10 * (1 + static_cast<int>(rng.below(4))));
        sched.create_stream({.tolerance = {1, 4}, .period = period},
                            Time::zero());
        ref.streams.push_back({.deadline = period, .period = period});
      }
      std::uint64_t fid = 0;
      for (int t = 0; t <= 400; t += 5) {
        const Time now = Time::ms(t);
        for (StreamId i = 0; i < n; ++i) {
          const auto burst = rng.below(4);
          if ((t / 5) % 4 != static_cast<int>(i % 4)) continue;
          for (auto k = burst; k > 0; --k, ++fid) {
            if (!sched.enqueue(i, frame(fid, now), now)) continue;
            auto& s = ref.streams[i];
            if (s.frames.empty() && s.deadline < now) {
              s.deadline = now + s.period;
            }
            s.frames.push_back(fid);
          }
        }
        for (auto k = rng.below(n / 2 + 1); k > 0; --k) {
          const auto got = sched.schedule_next(now);
          const auto want = ref.schedule_next(now);
          ASSERT_EQ(got.has_value(), want.has_value()) << "seed " << seed;
          if (!got) continue;
          ASSERT_EQ(std::pair(got->stream, got->frame.frame_id), *want)
              << to_string(config.repr) << " seed " << seed << " t " << t;
          ++compared;
        }
      }
      for (StreamId i = 0; i < n; ++i) {
        EXPECT_EQ(sched.stats(i).dropped, ref.streams[i].dropped)
            << to_string(config.repr) << " seed " << seed << " stream " << i;
      }
    }
    EXPECT_GT(compared, 10'000) << to_string(config.repr);
  }
}

TEST(RoundRobin, MatchesCursorScanOnLossyWorkloads) {
  expect_matches_scan(PolicyKind::kRoundRobin);
}

TEST(Edf, MatchesDeadlineScanOnLossyWorkloads) {
  expect_matches_scan(PolicyKind::kEdf);
}

// ---- The head-to-head that motivates DWCS ---------------------------------
//
// Two 100-packet/s streams, but service capacity for only 90 packets/s.
// The tight stream tolerates 3 losses per 8 (needs 62.5 pps on time); the
// loose one tolerates 7 per 8 (needs 12.5 pps). Total on-time demand 75 pps
// < 90 pps: the constraint set is feasible, but only a scheduler that sheds
// losses *selectively by tolerance* meets it. DWCS does: expired loose-
// stream heads drop back onto the shared deadline grid, so decisions become
// tolerance ties that the tight stream wins, while the loose stream earns
// exactly its reserved share through the W'=0 urgency path. EDF and
// round-robin are attribute-blind and starve the tight stream of its
// 62.5 pps, breaking its window constraint continuously.
std::pair<std::uint64_t, std::uint64_t> overload_violations(
    const DwcsScheduler::Config& config) {
  DwcsScheduler s{config};
  WindowViolationMonitor monitor;
  const WindowConstraint tight{3, 8}, loose{7, 8};
  // The loose stream gets the lower id so EDF's id tie-break cannot
  // accidentally favour the tight stream.
  const auto l_id = s.create_stream(
      {.tolerance = loose, .period = Time::ms(10), .lossy = true}, Time::zero());
  const auto t_id = s.create_stream(
      {.tolerance = tight, .period = Time::ms(10), .lossy = true}, Time::zero());
  monitor.add_stream(loose);
  monitor.add_stream(tight);

  std::uint64_t fid = 0;
  std::array<std::uint64_t, 2> seen_drops{0, 0};
  const auto pump_monitor = [&] {
    for (StreamId id : {t_id, l_id}) {
      const auto d = s.stats(id).dropped;
      for (std::uint64_t k = seen_drops[id]; k < d; ++k) {
        monitor.record(id, WindowViolationMonitor::Outcome::kDropped);
      }
      seen_drops[id] = d;
    }
  };

  for (int t = 0; t < 30000; t += 10) {
    s.enqueue(t_id, frame(fid++, Time::ms(t)), Time::ms(t));
    s.enqueue(l_id, frame(fid++, Time::ms(t)), Time::ms(t));
    // 90% capacity: 9 service slots per 10 arrival ticks. Drops between
    // slots are recorded at the next slot.
    if (t % 100 < 90) {
      const auto d = s.schedule_next(Time::ms(t));
      pump_monitor();
      if (d) {
        monitor.record(d->stream,
                       d->late ? WindowViolationMonitor::Outcome::kLate
                               : WindowViolationMonitor::Outcome::kOnTime);
      }
    }
  }
  pump_monitor();
  return {monitor.violating_windows(t_id), monitor.violating_windows(l_id)};
}

TEST(PolicyComparison, DwcsProtectsTightStreamUnderOverload) {
  const auto [dwcs_tight, dwcs_loose] = overload_violations({});
  // DWCS: the tight stream's constraint survives overload outright.
  EXPECT_EQ(dwcs_tight, 0u);
  EXPECT_LE(dwcs_loose, 10u);  // the loose stream's does too (it is feasible)
  // The attribute-blind policies break it, badly and continuously.
  EXPECT_GT(overload_violations(pifo(PolicyKind::kEdf)).first, 100u);
  EXPECT_GT(overload_violations(pifo(PolicyKind::kRoundRobin)).first, 100u);
}

}  // namespace
}  // namespace nistream::dwcs
