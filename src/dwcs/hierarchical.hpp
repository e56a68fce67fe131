// Sharded multi-core DWCS: N per-core PIFO engines under a tiny root arbiter.
//
// The paper's i960 co-processor is single-core, so every representation in
// repr.cpp models ONE scheduling engine over the whole stream population —
// and a single heap's O(log n) decision path slows as its working set
// outgrows the cache (BENCH_scale.json: dual-heap decisions/s fall 1.16M ->
// 407k from 1k to 1M streams). Modern NIs are not single-core; following
// *The Distributed Network Processor* (per-core engines plus an on-chip
// interconnect) and the two-level
// "winners feed a small root queue" shape of *Programmable Packet
// Scheduling* (PAPERS.md), this representation shards the stream population
// across N simulated NI cores:
//
//  * Each core runs its own allocation-free schedule engine over its shard:
//    a PifoRepr under the active policy's rank struct (DwcsRank for DWCS),
//    built the same way for every policy — the layer shards ANY total rank
//    order, not just rules 1-5. Not the Figure 4(a) dual heap: its charged
//    pick() replays a scan of the whole deadline heap whenever the
//    tolerance-heap top misses the earliest deadline, so a dual-heap core's
//    decision cost would grow with its shard. Shard assignment is a stable
//    hash of the stream id — rebalance-free, identical across runs and
//    boards (shard_of below). The cores share one position array per heap
//    kind (PifoPositions): a stream sits in one core, so per-core arrays
//    indexed by the global stream id would each pay for every id while
//    holding a 1/N share of the streams.
//  * A root arbiter keeps two N-entry indexed heaps whose elements are
//    SHARD indices, ordered by each shard's cached winner under the full
//    rule-1..5 precedence (pick) and by each shard's cached earliest
//    deadline under the rule-1+id order (late-packet processing).
//
// One decision is: read the root top (O(1)), mutate that stream's shard
// (O(log shard_size)), re-decide the shard's winner (O(1), its rank heap
// keeps it on top) and re-sift the two root entries (O(log N)). The hot
// path is therefore O(log(n/N)) + O(log N) per decision instead of
// O(log n) over one n-entry structure. Measured on one host core that is
// no win — sharding trims the deep (cache-cold) sift levels but pays root
// maintenance and a spread working set, so at 1M streams the serial bench
// reads 360k decisions/s on 4 shards against the flat dual heap's 407k
// (BENCH_scale.json; docs/performance.md, "Sharded NI scheduling", has the
// profile). The structural win is what the serial bench cannot show: the
// O(log(n/N)) shard work is per-core-parallel and per-core cache-resident
// on a real multi-core NI, and only the O(log N) root arbiter is
// serialized.
//
// Decision identity: the full precedence order is total (rule 5 breaks
// every tie by stream id), so the minimum over per-shard minima is the
// global minimum for ANY shard count — pick() and earliest_deadline()
// return exactly what the flat DualHeapRepr returns, decision for decision
// (DwcsRank ranks by the same total order). The 1-shard configuration is
// the degenerate proof anchor (one PIFO engine, one root entry) and is
// differentially tested against DualHeapRepr; multi-shard identity is
// tested on top of it.
//
// Cross-core cost model: when a mutation on core c changes what the root
// sees (the shard's winner or earliest-deadline entry), shipping that
// update over the on-chip interconnect costs a fixed
// HierarchicalParams::hop_cycles (default 0 — decision-identity runs add
// nothing; the ablation charges the hop per PAPERS.md's distributed-NP
// interconnect model).
#pragma once

#include <memory>
#include <vector>

#include "dwcs/heap.hpp"
#include "dwcs/pifo.hpp"
#include "dwcs/repr.hpp"

namespace nistream::dwcs {

class ShardExecTrace;
class ShardCycleMeter;

/// Simulated card-memory stride between per-core heap regions. A per-core
/// engine occupies two 0x10000 regions (its rank heap and its deadline
/// heap); each core gets its own pair so cache models see per-core working
/// sets, not one shared array. The two root heaps occupy the stride after
/// the last core's. Public so the cycle meter (shard_exec.hpp) can route a
/// heap access to the owning core's cache by address alone.
inline constexpr SimAddr kCoreStride = 0x20000;

/// Stable shard assignment: a splitmix64 finalizer over the stream id,
/// reduced mod `shards`. Pure function of (id, shards) — the same stream
/// set lands on the same cores in every run, on every board, with no
/// rebalancing state to checkpoint or ship on failover.
[[nodiscard]] constexpr std::uint32_t shard_of(StreamId id,
                                               std::uint32_t shards) {
  std::uint64_t x = static_cast<std::uint64_t>(id) + 0x9e3779b97f4a7c15ull;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<std::uint32_t>(x % shards);
}

class HierarchicalScheduler final : public ScheduleRepr {
 public:
  /// `policy` selects the rank order of the whole sharded machine: the
  /// per-core engines (a PifoRepr of the policy's rank struct) and the root
  /// arbiter's winner order. The earliest-deadline side is
  /// policy-independent.
  HierarchicalScheduler(const StreamTable& table, const Comparator& cmp,
                        CostHook& hook, SimAddr base,
                        const HierarchicalParams& params,
                        PolicyKind policy = PolicyKind::kDwcs);

  void insert(StreamId id) override;
  void remove(StreamId id) override;
  void update(StreamId id) override;
  void reserve(std::size_t n) override;
  void on_charge(StreamId id) override;
  [[nodiscard]] std::optional<StreamId> pick() override;
  [[nodiscard]] std::optional<StreamId> earliest_deadline() override;
  [[nodiscard]] const char* name() const override { return "hierarchical"; }

  [[nodiscard]] std::uint32_t shards() const {
    return static_cast<std::uint32_t>(cores_.size());
  }
  /// Streams currently backlogged on core `s` (tests, load introspection).
  [[nodiscard]] std::size_t shard_population(std::uint32_t s) const {
    return population_[s];
  }

  /// Simulated-parallel execution (shard_exec.hpp): report every mutation's
  /// cycle split — per-shard engine work vs root-arbiter work — to `trace`,
  /// measured as deltas of `meter`, which MUST be the CostHook this scheduler
  /// was constructed over (the deltas bracket this scheduler's own charges).
  /// Passing nullptrs detaches. Attach AFTER bulk setup, or the setup
  /// mutations become replayed work items too.
  void set_exec_trace(ShardExecTrace* trace, ShardCycleMeter* meter) {
    trace_ = trace;
    meter_ = meter;
  }

  /// Interconnect hops charged so far (charged runs with hop_cycles > 0 on
  /// a multi-shard board; 0 otherwise). The parallel-mode identity suite
  /// asserts this equals the serial scheduler's count for the same workload.
  [[nodiscard]] std::uint64_t hops_charged() const { return hops_charged_; }

 private:
  // Root-heap comparators. Elements are shard indices; keys are the cached
  // winner / earliest-deadline stream of each shard, read through the
  // shared stream table. Root compares charge through the scheduler's
  // comparator exactly like any other heap compare: the root arbiter is
  // modeled as one more core doing real work, not free magic. The winner
  // order is the active rank policy's (winner_precedes dispatches on it; the
  // minimum over per-shard minima is the global minimum for any total rank
  // order, not just DWCS's).
  struct RootWinnerLess {
    const HierarchicalScheduler* h;
    bool operator()(StreamId sa, StreamId sb) const {
      return h->winner_precedes(h->winner_[sa], h->winner_[sb]);
    }
  };
  struct RootDeadlineLess {
    const HierarchicalScheduler* h;
    bool operator()(StreamId sa, StreamId sb) const {
      return DeadlineIdLess{&h->table_}(h->edl_[sa], h->edl_[sb]);
    }
  };

  /// The active policy's rank order over two shard winners (both valid ids).
  /// For DWCS this is exactly cmp_.precedes — charge-identical to the
  /// pre-rank-engine root arbiter; the other policies' orders are uncharged
  /// like their flat engines.
  [[nodiscard]] bool winner_precedes(StreamId a, StreamId b) const;

  /// Build the engine of one core at `core_base` per the active policy.
  [[nodiscard]] std::unique_ptr<ScheduleRepr> make_core(SimAddr core_base);

  /// Re-decide shard `s` after mutating `mutated` in it, and re-sift its
  /// two root entries. Charges one interconnect hop per root entry whose
  /// content the mutation changed (winner id changed, or the mutated stream
  /// IS the cached entry so its key changed under the root's feet).
  void refresh(std::uint32_t s, StreamId mutated);

  /// Uncharged fast path: mutations only mark their shard dirty; the root
  /// is repaired here, once, at the next query. The common decision cycle
  /// (remove the dispatched stream, re-insert its refilled ring) dirties one
  /// shard twice but pays a single winner recompute + root sift — the same
  /// host-side shortcut licence the uncharged DualHeapRepr uses for its
  /// shadow heap. Charged runs never take this path: their root stays
  /// eagerly consistent so each interconnect hop is charged at the mutation
  /// that caused it, keeping the cycle ledger deterministic.
  void flush_dirty();
  void mark_dirty(std::uint32_t s) {
    if (!dirty_[s]) {
      dirty_[s] = 1;
      dirty_list_.push_back(s);
    }
  }

  const StreamTable& table_;
  const Comparator& cmp_;
  CostHook* hook_;
  bool charged_;  // cached hook.accounted(); false only for the null hook
  std::int64_t hop_cycles_;
  PolicyKind policy_;
  /// Root ranks of the stateful policies. Each core's rank is a copy of the
  /// active one, so all share its ledger (the round-robin cycle position,
  /// the WFQ clock) and keys stay comparable across shards. The inactive
  /// one is unused, but cheap.
  RoundRobinRank rr_;
  WfqRank wfq_;
  /// Simulated-parallel cycle reporting (set_exec_trace); both null in the
  /// default serial mode.
  ShardExecTrace* trace_ = nullptr;
  ShardCycleMeter* meter_ = nullptr;
  std::uint64_t hops_charged_ = 0;
  /// Every core's heap positions (see the header). Declared before cores_,
  /// whose heaps point into it.
  PifoPositions positions_;
  std::vector<std::unique_ptr<ScheduleRepr>> cores_;
  std::vector<StreamId> winner_;  // per shard; kInvalidStream when empty
  std::vector<StreamId> edl_;     // per shard; kInvalidStream when empty
  std::vector<std::size_t> population_;  // streams backlogged per shard
  std::vector<std::uint8_t> dirty_;      // uncharged: root entry is stale
  std::vector<std::uint32_t> dirty_list_;  // dirty shards, unordered
  IndexedHeap<RootWinnerLess> root_pick_;
  IndexedHeap<RootDeadlineLess> root_deadline_;
};

}  // namespace nistream::dwcs
