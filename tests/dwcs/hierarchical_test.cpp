// HierarchicalScheduler (sharded multi-core DWCS) contract tests.
//
// The load-bearing property is DECISION IDENTITY: the full rule-1..5
// precedence is a total order (rule 5 ends every tie at "lowest stream id"),
// so the minimum over per-shard minima equals the global minimum for any
// shard count, and a sharded board must dispatch exactly what a single
// dual heap dispatches. The 1-shard case is the degenerate anchor (one
// core, one root entry); multi-shard cases prove the root arbiter.
//
// The repr_differential_test additionally runs hierarchical reprs inside
// its 5-way lock-step harness; this file holds the focused direct-vs-
// DualHeapRepr comparison, the shard-hash stability pins, and the
// interconnect-hop cost accounting.
#include "dwcs/hierarchical.hpp"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "dwcs/dual_heap.hpp"
#include "lockstep.hpp"
#include "sim/random.hpp"

namespace nistream::dwcs {
namespace {

using sim::Time;

// ---------------------------------------------------------------------------
// shard_of: stable, total, well-spread.
// ---------------------------------------------------------------------------

TEST(ShardHash, PinnedGoldenValues) {
  // shard_of is part of the on-disk/cross-board contract (the same stream
  // set must land on the same cores in every run, with no rebalancing
  // state), so its values are pinned, not just its shape. Changing the hash
  // is a breaking change and must show up here.
  EXPECT_EQ(shard_of(0, 8), 7u);
  EXPECT_EQ(shard_of(1, 8), 1u);
  EXPECT_EQ(shard_of(2, 8), 6u);
  EXPECT_EQ(shard_of(7, 3), 0u);
  EXPECT_EQ(shard_of(42, 16), 5u);
  EXPECT_EQ(shard_of(99999, 8), 6u);
}

TEST(ShardHash, SingleShardMapsEverythingToZero) {
  for (StreamId id = 0; id < 1000; ++id) EXPECT_EQ(shard_of(id, 1), 0u);
}

TEST(ShardHash, StableAcrossCallsAndSpreadsLoad) {
  constexpr std::uint32_t kShards = 8;
  std::array<int, kShards> count{};
  for (StreamId id = 0; id < 10'000; ++id) {
    const auto s = shard_of(id, kShards);
    ASSERT_LT(s, kShards);
    ASSERT_EQ(s, shard_of(id, kShards));  // pure function of (id, shards)
    ++count[s];
  }
  // Sequential ids (the allocator's pattern) must not pile onto few shards:
  // each shard within 2x of the uniform share.
  for (std::uint32_t s = 0; s < kShards; ++s) {
    EXPECT_GT(count[s], 10'000 / (2 * kShards)) << "shard " << s;
    EXPECT_LT(count[s], 2 * 10'000 / kShards) << "shard " << s;
  }
}

// ---------------------------------------------------------------------------
// Decision identity vs DualHeapRepr.
// ---------------------------------------------------------------------------

/// The sharded scheduler against one flat dual heap, in lock-step.
int sharded_lockstep(std::uint32_t shards, std::uint64_t seed) {
  FakeTable table;
  Comparator cmp{ArithMode::kFixedPoint, null_cost_hook()};
  DualHeapRepr reference{table, cmp, null_cost_hook(), 0x0100'0000};
  HierarchicalScheduler sharded{table, cmp, null_cost_hook(), 0x0200'0000,
                                HierarchicalParams{.shards = shards}};
  EXPECT_EQ(sharded.shards(), shards);
  return run_lockstep(table, reference, sharded, seed,
                      "shards " + std::to_string(shards));
}

TEST(HierarchicalIdentity, OneShardMatchesDualHeap) {
  // Same seeds as the 5-way differential test.
  for (const std::uint64_t seed : {7u, 99u, 1234u}) {
    EXPECT_GT(sharded_lockstep(1, seed), 1000) << "seed " << seed;
  }
}

TEST(HierarchicalIdentity, MultiShardMatchesDualHeap) {
  for (const std::uint32_t shards : {2u, 3u, 4u, 8u, 16u}) {
    for (const std::uint64_t seed : {7u, 99u, 1234u}) {
      EXPECT_GT(sharded_lockstep(shards, seed), 1000)
          << "shards " << shards << " seed " << seed;
    }
  }
}

TEST(Hierarchical, PopulationTracksShardAssignment) {
  FakeTable table;
  Comparator cmp{ArithMode::kFixedPoint, null_cost_hook()};
  HierarchicalScheduler h{table, cmp, null_cost_hook(), 0x0100'0000,
                          HierarchicalParams{.shards = 4}};
  sim::Rng rng{5};
  for (int i = 0; i < 200; ++i) {
    h.insert(table.add(random_view(rng, Time::zero())));
  }
  std::size_t total = 0;
  for (std::uint32_t s = 0; s < h.shards(); ++s) {
    total += h.shard_population(s);
    EXPECT_GT(h.shard_population(s), 0u) << "shard " << s;
  }
  EXPECT_EQ(total, 200u);
  for (StreamId id = 0; id < 50; ++id) h.remove(id);
  total = 0;
  for (std::uint32_t s = 0; s < h.shards(); ++s) total += h.shard_population(s);
  EXPECT_EQ(total, 150u);
}

// ---------------------------------------------------------------------------
// Interconnect hop accounting.
// ---------------------------------------------------------------------------

class CycleCountingHook final : public CostHook {
 public:
  void cycles(std::int64_t n) override { total += n; }
  std::int64_t total = 0;
};

/// Total cycles() charged for a fixed insert+dispatch workload.
std::int64_t charged_cycles(std::uint32_t shards, std::int64_t hop_cycles) {
  FakeTable table;
  CycleCountingHook hook;
  Comparator cmp{ArithMode::kFixedPoint, null_cost_hook()};
  HierarchicalScheduler h{table, cmp, hook, 0x0100'0000,
                          HierarchicalParams{.shards = shards,
                                             .hop_cycles = hop_cycles}};
  sim::Rng rng{17};
  Time now = Time::zero();
  for (int i = 0; i < 64; ++i) h.insert(table.add(random_view(rng, now)));
  for (int round = 0; round < 200; ++round) {
    now += Time::ms(2);
    const auto p = h.pick();
    if (!p) break;
    table.rule_a(*p);
    table.mutable_view(*p).next_deadline +=
        Time::ms(10 * (1 + static_cast<double>(rng.below(4))));
    h.update(*p);
  }
  return hook.total;
}

TEST(HierarchicalHop, ChargedOnlyWhenShardedAndNonZero) {
  // Single core: there is no interconnect, so the hop parameter must be
  // inert — the charge stream is identical with it set or not.
  EXPECT_EQ(charged_cycles(1, 0), charged_cycles(1, 25));
  // Multi-core with a real hop cost charges strictly more than hop=0, and
  // the surplus is a whole number of hops (every charge is one full hop).
  const std::int64_t base = charged_cycles(8, 0);
  const std::int64_t with_hop = charged_cycles(8, 25);
  EXPECT_GT(with_hop, base);
  EXPECT_EQ((with_hop - base) % 25, 0);
}

}  // namespace
}  // namespace nistream::dwcs
