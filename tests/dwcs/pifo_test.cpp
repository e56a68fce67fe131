// PIFO rank engine contract tests.
//
// The load-bearing property is DECISION IDENTITY for the DWCS rank:
// PifoRepr<DwcsRank> ranks by the same rule-1..5 total order as
// DualHeapRepr's full-order shadow heap, so both must pick() the identical
// stream on every round. Inside the hierarchical sharding layer, PIFO cores
// under EDF and static priority must decide exactly as one flat PIFO engine
// under the same policy, at every shard count. The WFQ rank is stateful
// (virtual finish tags), so its tests assert the fair-queueing contract
// instead: service counts converge to weight-proportional shares, and an
// idle flow rejoins at the clock with no banked catch-up burst.
#include "dwcs/pifo.hpp"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "dwcs/dual_heap.hpp"
#include "dwcs/hierarchical.hpp"
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
  // flat PIFO engine under the same policy: EDF and static priority are
  // total orders, so per-core order plus the root arbiter reproduce the flat
  // order at any shard count.
  for (const PolicyKind policy :
       {PolicyKind::kEdf, PolicyKind::kStaticPriority}) {
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
  EXPECT_STREQ(to_string(PolicyKind::kWfq), "wfq");
  EXPECT_STREQ(to_string(PolicyKind::kTenantDwcs), "tenant-dwcs");
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
// TenantDwcs rank: WFQ share across scopes, DWCS order within a scope.
// ---------------------------------------------------------------------------

TEST(TenantDwcs, WeightProportionalSharesAcrossScopes) {
  FakeTable table;
  Comparator cmp{ArithMode::kFixedPoint, null_cost_hook()};
  TenantDwcsRank rank{&cmp};
  // One stream per scope, scope weights 1/2/4. Identical DWCS attributes so
  // the share split is purely the scope clocking.
  StreamView v;
  v.current = {0, 4};
  v.next_deadline = Time::ms(10);
  for (StreamId id = 0; id < 3; ++id) {
    rank.state->set_scope(id, id);
    rank.state->set_weight(id, std::uint64_t{1} << id);  // 1, 2, 4
  }
  PifoRepr<TenantDwcsRank> repr{table, rank, null_cost_hook(), 0x0100'0000};
  EXPECT_STREQ(repr.name(), "pifo-tenant-dwcs");
  for (StreamId id = 0; id < 3; ++id) repr.insert(table.add(v));
  // With one stream per scope the charged stream IS the scope, so its
  // update() re-sift keeps the heap exact — shares land like WfqRank's.
  const auto count = serve(repr, table, 7000);
  EXPECT_NEAR(count[0], 1000, 2);
  EXPECT_NEAR(count[1], 2000, 2);
  EXPECT_NEAR(count[2], 4000, 2);
}

TEST(TenantDwcs, DwcsOrderDecidesWithinScope) {
  FakeTable table;
  Comparator cmp{ArithMode::kFixedPoint, null_cost_hook()};
  TenantDwcsRank rank{&cmp};
  rank.state->set_scope(0, 0);
  rank.state->set_scope(1, 0);  // both streams in one tenant scope
  PifoRepr<TenantDwcsRank> repr{table, rank, null_cost_hook(), 0x0100'0000};
  StreamView v;
  v.current = {1, 4};
  v.next_deadline = Time::ms(30);
  const auto late = table.add(v);
  v.next_deadline = Time::ms(10);
  const auto soon = table.add(v);
  repr.insert(late);
  repr.insert(soon);
  // Same scope, so the scope tag is shared and rules 1-5 decide: the earlier
  // deadline wins no matter how often the scope is charged.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(repr.pick(), std::optional<StreamId>{soon});
    repr.on_charge(soon);
    repr.update(soon);
  }
  repr.remove(soon);
  EXPECT_EQ(repr.pick(), std::optional<StreamId>{late});
}

TEST(TenantDwcs, OverAdmittedScopeDegradesItselfNotNeighbours) {
  FakeTable table;
  Comparator cmp{ArithMode::kFixedPoint, null_cost_hook()};
  // Scope 0 admits three streams, scope 1 one stream, equal weights: the
  // scope SHARES stay equal — scope 0's extra streams contend with each
  // other inside their own engine, not with scope 1 (the ROADMAP's
  // tenant-isolation property). Scope sharding makes this exact: the root
  // alternates between the two scope tags, whatever the populations.
  HierarchicalScheduler sharded{table, cmp, null_cost_hook(), 0x0100'0000,
                                HierarchicalParams{.shards = 2},
                                PolicyKind::kTenantDwcs};
  for (StreamId id = 0; id < 3; ++id) sharded.tenant_state()->set_scope(id, 0);
  sharded.tenant_state()->set_scope(3, 1);
  StreamView v;
  v.current = {0, 4};
  v.next_deadline = Time::ms(10);
  for (StreamId id = 0; id < 4; ++id) sharded.insert(table.add(v));
  const auto count = serve(sharded, table, 4000);
  const int scope0 = count[0] + count[1] + count[2];
  EXPECT_NEAR(scope0, 2000, 2);
  EXPECT_NEAR(count[3], 2000, 2);
}

TEST(TenantDwcs, MakeReprBuildsTheScopeShardedTree) {
  FakeTable table;
  Comparator cmp{ArithMode::kFixedPoint, null_cost_hook()};
  const auto repr = make_repr(ReprKind::kPifo, table, cmp, null_cost_hook(),
                              0x0100'0000, {}, PolicyKind::kTenantDwcs);
  // Flat kPifo reroutes to the two-level engine — tenant-DWCS cannot live in
  // one heap (see TenantDwcsRank's structural-requirement note).
  EXPECT_STREQ(repr->name(), "hierarchical");
  // Four streams land in four distinct default scopes (id % 4) with default
  // weight 1: equal shares.
  StreamView v;
  v.current = {0, 4};
  v.next_deadline = Time::ms(10);
  for (StreamId id = 0; id < 4; ++id) repr->insert(table.add(v));
  const auto count = serve(*repr, table, 4000);
  for (StreamId id = 0; id < 4; ++id) EXPECT_NEAR(count[id], 1000, 2);
}

TEST(TenantDwcs, HierarchicalCoresShareOneLedger) {
  // The sharded machine hands every core (and the root winner order) the
  // same TenantDwcsState: scope finish tags stay globally comparable, so
  // per-scope shares hold across shard boundaries — same contract as
  // WfqRank.HierarchicalCoresShareOneClock.
  FakeTable table;
  Comparator cmp{ArithMode::kFixedPoint, null_cost_hook()};
  HierarchicalScheduler sharded{table, cmp, null_cost_hook(), 0x0100'0000,
                                HierarchicalParams{.shards = 4},
                                PolicyKind::kTenantDwcs};
  StreamView v;
  v.current = {0, 4};
  v.next_deadline = Time::ms(10);
  // Ids 0..7 -> default scopes 0..3, two streams per scope, equal weights.
  for (StreamId id = 0; id < 8; ++id) sharded.insert(table.add(v));
  const auto count = serve(sharded, table, 4000);
  for (std::uint32_t scope = 0; scope < 4; ++scope) {
    EXPECT_NEAR(count[scope] + count[scope + 4], 1000, 32) << "scope "
                                                           << scope;
  }
}

}  // namespace
}  // namespace nistream::dwcs
