// Simulated-parallel shard execution (dwcs/parallel.hpp).
//
// Two suites, named to match the CI sanitizer gate:
//  * ParallelIdentity — the load-bearing contract: replaying the hierarchical
//    scheduler's cycle trace on an N-core WindKernel changes TIME only, never
//    the dispatch sequence. Lock-step FNV equality against both the serial
//    hierarchical scheduler and the flat dual heap at 1/4/16 cores x 3 seeds,
//    plus charged-mode interconnect-hop equality.
//  * ParallelExec — executor mechanics: same-shard FIFO under back-to-back
//    mutation bursts, run-to-run determinism of the simulated clock, the
//    arbiter as the only serialization point, and the headline scaling claims
//    (8 shards >= 3x the 1-shard simulated decision rate; on 4 shards the
//    rate holds from 1k to 10k streams).
#include "dwcs/parallel.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "dwcs/hierarchical.hpp"
#include "dwcs/scheduler.hpp"
#include "dwcs/shard_exec.hpp"
#include "hw/calibration.hpp"
#include "hw/cpu.hpp"
#include "mpeg/frame.hpp"
#include "rtos/wind.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"

namespace nistream::dwcs {
namespace {

constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;
constexpr SimAddr kHeapBase = 0x0100'0000;

/// Same workload shape as bench/scale_sweep: mostly-peer streams (75% share
/// one period, so deadline ties are the common case) with one standing frame
/// each. Identity only holds between runs built from the same (seed, n).
std::unique_ptr<DwcsScheduler> loaded(ReprKind kind, std::uint32_t shards,
                                      std::size_t n, std::uint64_t seed,
                                      CostHook* hook,
                                      std::int64_t hop_cycles = 0) {
  DwcsScheduler::Config cfg;
  cfg.repr = kind;
  cfg.hierarchical.shards = shards == 0 ? 1 : shards;
  cfg.hierarchical.hop_cycles = hop_cycles;
  cfg.ring_capacity = 8;
  auto sched = hook != nullptr ? std::make_unique<DwcsScheduler>(cfg, *hook)
                               : std::make_unique<DwcsScheduler>(cfg);
  sim::Rng rng{seed ^ n};
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t y = 2 + static_cast<std::int64_t>(rng.below(6));
    const std::int64_t x =
        static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(y)));
    const double period_ms = rng.chance(0.75) ? 33.0 : 40.0;
    sched->create_stream({.tolerance = {x, y},
                          .period = sim::Time::ms(period_ms),
                          .lossy = rng.chance(0.7)},
                         sim::Time::zero());
  }
  for (std::size_t i = 0; i < n; ++i) {
    FrameDescriptor d;
    d.frame_id = i;
    d.bytes = mpeg::kPaperFrameBytes;
    d.enqueued_at = sim::Time::zero();
    (void)sched->enqueue(static_cast<StreamId>(i), d, sim::Time::zero());
  }
  return sched;
}

struct SerialRun {
  std::uint64_t decisions = 0;
  std::uint64_t fnv = kFnvBasis;
  std::uint64_t hops = 0;
};

/// Reference run: the plain serial decision loop (refill keeps the population
/// constant), optionally with a ShardCycleMeter attached as the cost hook but
/// no trace — cycles are charged, nothing is replayed.
SerialRun serial_run(ReprKind kind, std::uint32_t shards, std::size_t n,
                     std::uint64_t seed, std::uint64_t budget,
                     std::int64_t hop_cycles = 0, CostHook* hook = nullptr) {
  SerialRun r;
  auto sched = loaded(kind, shards, n, seed, hook, hop_cycles);
  sim::Time now = sim::Time::zero();
  std::uint64_t fid = n;
  while (r.decisions < budget) {
    if (const auto next = sched->earliest_backlog_deadline();
        next && *next > now) {
      now = *next;
    }
    const auto d = sched->schedule_next(now);
    if (!d) break;
    ++r.decisions;
    r.fnv = (r.fnv ^ static_cast<std::uint64_t>(d->stream)) * kFnvPrime;
    FrameDescriptor refill;
    refill.frame_id = fid++;
    refill.bytes = mpeg::kPaperFrameBytes;
    refill.enqueued_at = now;
    (void)sched->enqueue(d->stream, refill, now);
  }
  if (kind == ReprKind::kHierarchical) {
    r.hops = static_cast<HierarchicalScheduler&>(sched->repr()).hops_charged();
  }
  return r;
}

struct ParallelRun {
  std::uint64_t decisions = 0;
  std::uint64_t fnv = kFnvBasis;
  std::uint64_t hops = 0;
  std::uint64_t items = 0;
  double sim_sec = 0;
  double arbiter_cpu_sec = 0;
  double shard_cpu_sum_sec = 0;
  std::vector<std::vector<std::uint64_t>> consumed;  // per shard (record only)
  std::vector<std::size_t> max_depth;                // per shard
};

/// Driver coroutine: the bench's round loop (dwcs/parallel.hpp, "Driving
/// protocol"). The finish_decision bracket covers decision + refill so the
/// refill's traced mutations are settled before the next decision opens.
sim::Coro drive(sim::Engine& eng, DwcsScheduler& sched, ShardCycleMeter& meter,
                ParallelShardExecutor& exec, std::size_t n,
                std::uint64_t budget, ParallelRun& r) {
  const std::uint32_t shards = exec.shards();
  sim::Time now = sim::Time::zero();
  std::uint64_t fid = n;
  while (r.decisions < budget) {
    const std::uint64_t round =
        std::min<std::uint64_t>(256, budget - r.decisions);
    for (std::uint64_t k = 0; k < round; ++k) {
      if (const auto next = sched.earliest_backlog_deadline();
          next && *next > now) {
        now = *next;
      }
      const std::int64_t t0 = meter.total();
      const auto d = sched.schedule_next(now);
      if (!d) {
        budget = r.decisions;
        break;
      }
      ++r.decisions;
      r.fnv = (r.fnv ^ static_cast<std::uint64_t>(d->stream)) * kFnvPrime;
      FrameDescriptor refill;
      refill.frame_id = fid++;
      refill.bytes = mpeg::kPaperFrameBytes;
      refill.enqueued_at = now;
      (void)sched.enqueue(d->stream, refill, now);
      exec.finish_decision(shard_of(d->stream, shards), meter.total() - t0);
    }
    co_await exec.fence();
  }
  r.sim_sec = eng.now().to_sec();
  exec.shutdown();
}

ParallelRun parallel_run(std::uint32_t shards, std::size_t n,
                         std::uint64_t seed, std::uint64_t budget,
                         std::int64_t hop_cycles = 0, bool record = false) {
  ParallelRun r;
  sim::Engine eng;
  hw::Calibration cal;
  hw::CpuModel cpu{cal.ni_cpu};
  rtos::WindKernel kernel{eng, cpu, cal.rtos,
                          static_cast<int>(shards == 0 ? 1 : shards)};
  ShardCycleMeter meter{cal, shards, kHeapBase, kCoreStride};
  auto sched =
      loaded(ReprKind::kHierarchical, shards, n, seed, &meter, hop_cycles);
  ParallelShardExecutor exec{kernel, shards};
  exec.set_record_order(record);
  auto& hier = static_cast<HierarchicalScheduler&>(sched->repr());
  hier.set_exec_trace(&exec, &meter);  // AFTER setup: replay decisions only
  drive(eng, *sched, meter, exec, n, budget, r).detach();
  eng.run_until(sim::Time::sec(1e9));
  r.hops = hier.hops_charged();
  r.items = exec.total_items();
  r.arbiter_cpu_sec = exec.arbiter_cpu_time().to_sec();
  for (std::uint32_t s = 0; s < exec.shards(); ++s) {
    r.shard_cpu_sum_sec += exec.shard_cpu_time(s).to_sec();
    r.max_depth.push_back(exec.max_queue_depth(s));
    if (record) r.consumed.push_back(exec.consumed_order(s));
  }
  return r;
}

// ---------------------------------------------------------------------------
// ParallelIdentity: parallel TIME modeling, bit-identical DISPATCH sequence.
// ---------------------------------------------------------------------------

TEST(ParallelIdentity, MatchesSerialHierarchicalAndDualHeap) {
  constexpr std::size_t kStreams = 384;
  constexpr std::uint64_t kBudget = 1500;
  for (const std::uint64_t seed : {7ull, 99ull, 1234ull}) {
    const auto flat =
        serial_run(ReprKind::kDualHeap, 1, kStreams, seed, kBudget);
    ASSERT_EQ(flat.decisions, kBudget);
    for (const std::uint32_t cores : {1u, 4u, 16u}) {
      const auto serial = serial_run(ReprKind::kHierarchical, cores, kStreams,
                                     seed, kBudget);
      const auto par = parallel_run(cores, kStreams, seed, kBudget);
      EXPECT_EQ(par.decisions, flat.decisions)
          << "cores=" << cores << " seed=" << seed;
      EXPECT_EQ(par.fnv, flat.fnv) << "cores=" << cores << " seed=" << seed;
      EXPECT_EQ(par.fnv, serial.fnv)
          << "cores=" << cores << " seed=" << seed;
    }
  }
}

TEST(ParallelIdentity, ChargedModeHopAccountingMatchesSerial) {
  // With hop_cycles > 0 the root refresh charges an interconnect hop per
  // changed root entry. Replaying the trace must not change how many hops
  // the scheduler charges: the meter brackets READ cycle counts, they never
  // add or suppress any.
  constexpr std::size_t kStreams = 256;
  constexpr std::uint64_t kBudget = 1000;
  constexpr std::int64_t kHop = 180;
  for (const std::uint32_t cores : {4u, 16u}) {
    hw::Calibration cal;
    ShardCycleMeter meter{cal, cores, kHeapBase, kCoreStride};
    const auto serial = serial_run(ReprKind::kHierarchical, cores, kStreams,
                                   7, kBudget, kHop, &meter);
    const auto par = parallel_run(cores, kStreams, 7, kBudget, kHop);
    EXPECT_GT(par.hops, 0u) << "cores=" << cores;
    EXPECT_EQ(par.hops, serial.hops) << "cores=" << cores;
    EXPECT_EQ(par.fnv, serial.fnv) << "cores=" << cores;
  }
}

// ---------------------------------------------------------------------------
// ParallelExec: executor mechanics on the simulated clock.
// ---------------------------------------------------------------------------

TEST(ParallelExec, SameShardBurstsDrainInPostingOrder) {
  // Every decision posts a burst of same-shard mutations back-to-back
  // (on_charge + window update + refill insert all land on the dispatched
  // stream's shard). The per-shard queue must drain them strictly FIFO.
  const auto r = parallel_run(/*shards=*/4, /*n=*/256, /*seed=*/7,
                              /*budget=*/800, /*hop_cycles=*/0,
                              /*record=*/true);
  ASSERT_EQ(r.consumed.size(), 4u);
  std::size_t deepest = 0;
  std::uint64_t consumed_total = 0;
  for (std::uint32_t s = 0; s < 4; ++s) {
    const auto& log = r.consumed[s];
    consumed_total += log.size();
    for (std::size_t i = 1; i < log.size(); ++i) {
      ASSERT_LT(log[i - 1], log[i]) << "shard " << s << " reordered items";
    }
    deepest = std::max(deepest, r.max_depth[s]);
  }
  EXPECT_EQ(consumed_total, r.items);  // every posted item was consumed
  // Bursts actually queued: if no queue ever held more than one item, the
  // FIFO claim above was tested against nothing.
  EXPECT_GT(deepest, 1u);
}

TEST(ParallelExec, SimulatedClockIsDeterministic) {
  const auto a = parallel_run(8, 256, 42, 1000);
  const auto b = parallel_run(8, 256, 42, 1000);
  EXPECT_EQ(a.fnv, b.fnv);
  EXPECT_EQ(a.items, b.items);
  EXPECT_EQ(a.sim_sec, b.sim_sec);  // bit-equal: same trace, same engine
}

TEST(ParallelExec, ArbiterIsTheOnlySerializationPoint) {
  // Root work is real (winner recomputes + root sifts are metered cycles)
  // and runs on ONE task, so the simulated elapsed time can never beat the
  // arbiter's own CPU time — that serialized floor is the Amdahl term of
  // the model, not an artifact. What sharding buys is that the shard-engine
  // work OVERLAPS the root instead of adding to the critical path: elapsed
  // must come in strictly under the serial sum of the two pools.
  const auto r = parallel_run(8, 4096, 7, 1500);
  ASSERT_GT(r.sim_sec, 0.0);
  EXPECT_GT(r.arbiter_cpu_sec, 0.0);
  EXPECT_GT(r.shard_cpu_sum_sec, 0.0);
  EXPECT_GE(r.sim_sec, r.arbiter_cpu_sec);
  EXPECT_LT(r.sim_sec, 0.95 * (r.arbiter_cpu_sec + r.shard_cpu_sum_sec));
}

TEST(ParallelExec, EightShardsAtLeastTripleOneShardThroughput) {
  // The acceptance bar from the bench (>=3x at 8 shards) holds at test scale
  // too. The root arbiter's serialized share keeps the modeled speedup below
  // 8x (~7x here), so 3x is a conservative floor.
  constexpr std::size_t kStreams = 512;
  constexpr std::uint64_t kBudget = 1500;
  const auto one = parallel_run(1, kStreams, 7, kBudget);
  const auto eight = parallel_run(8, kStreams, 7, kBudget);
  ASSERT_EQ(one.decisions, kBudget);
  ASSERT_EQ(eight.decisions, kBudget);
  ASSERT_GT(eight.sim_sec, 0.0);
  EXPECT_GE(one.sim_sec / eight.sim_sec, 3.0);
}

TEST(ParallelExec, FourShardRateHoldsFromOneToTenThousandStreams) {
  // A DWCS core is a PIFO engine, so a decision costs O(log(n/N)) cycles on
  // its core: ten times the streams must leave the simulated decision rate
  // within 20%. A core whose charged pick() scans its whole deadline heap
  // (the dual heap's modeled tie scan) falls ~20x here.
  constexpr std::uint64_t kBudget = 1024;
  const auto small = parallel_run(4, 1'000, 7, kBudget);
  const auto large = parallel_run(4, 10'000, 7, kBudget);
  ASSERT_EQ(small.decisions, kBudget);
  ASSERT_EQ(large.decisions, kBudget);
  ASSERT_GT(small.sim_sec, 0.0);
  ASSERT_GT(large.sim_sec, 0.0);
  const double small_rate = static_cast<double>(kBudget) / small.sim_sec;
  const double large_rate = static_cast<double>(kBudget) / large.sim_sec;
  EXPECT_NEAR(large_rate / small_rate, 1.0, 0.2)
      << small_rate << " decisions/s at 1k streams, " << large_rate
      << " at 10k";
}

}  // namespace
}  // namespace nistream::dwcs
