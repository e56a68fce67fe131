// Cycle metering for simulated-parallel shard execution.
//
// The serial wall-clock bench can never exhibit the multi-core NI's parallel
// mutation capacity (docs/performance.md, "Sharded NI scheduling"): every
// shard mutation executes on the one host core running the bench. The
// simulated-parallel mode closes that gap with a replay split:
//
//   1. The scheduler executes every decision EAGERLY on the host, exactly as
//      the serial path does — the decision sequence is therefore bit-identical
//      to the serial hierarchical scheduler and the flat dual heap (the FNV
//      `--identity` gate checks this, it is not assumed).
//   2. A ShardCycleMeter (below) prices each mutation in i960 cycles, split
//      into per-shard engine work vs root-arbiter work by bracketing inside
//      HierarchicalScheduler (set_exec_trace).
//   3. A ParallelShardExecutor (parallel.hpp) replays those cycle costs as
//      work items consumed by N equal-priority rtos:: tasks on an N-core
//      WindKernel — per-shard queues drained in parallel, root work funneled
//      through one arbiter task. Simulated elapsed time then reflects what an
//      N-core board would take for the same decision stream.
//
// The split is sound because the decision sequence itself does not depend on
// execution interleaving: the full rank order is total, so the minimum over
// per-shard minima is the global minimum no matter which core finished its
// sift first. Only TIME is modeled in parallel; STATE stays serial.
#pragma once

#include <cstdint>
#include <vector>

#include "dwcs/cost.hpp"
#include "dwcs/types.hpp"
#include "hw/cache.hpp"
#include "hw/calibration.hpp"

namespace nistream::dwcs {

/// Consumer of per-mutation cycle splits from a sharded scheduler.
/// `shard_cycles` is work the owning core's engine did (heap sifts over its
/// shard); `root_cycles` is work the root arbiter did on the mutation's
/// behalf (winner recompute + root heap sifts + interconnect hop).
class ShardExecTrace {
 public:
  virtual ~ShardExecTrace() = default;
  virtual void mutation(std::uint32_t shard, StreamId id,
                        std::int64_t shard_cycles,
                        std::int64_t root_cycles) = 0;
};

/// Accounted CostHook that prices every charge in i960 cycles against
/// PER-CORE d-caches: heap accesses route to the owning core's cache by
/// simulated address (each core's heap pair lives kCoreStride apart; the two
/// root heaps follow and route to the arbiter), and non-heap traffic (frame
/// rings, stream-state blocks) routes to the core last named via
/// set_context() — the core whose stream the scheduler is currently touching.
/// The context routing is an approximation (the serial host executes
/// everything on one thread, so "which core touched this ring" is known only
/// per-mutation, not per-access); at bench scale the structures are
/// miss-dominated anyway, so the approximation moves totals by little and is
/// identical across runs.
class ShardCycleMeter final : public CostHook {
 public:
  ShardCycleMeter(const hw::Calibration& cal, std::uint32_t cores,
                  SimAddr heap_base, SimAddr core_stride)
      : int_costs_{cal.ni_int},
        fp_costs_{cal.ni_softfp},
        mmio_{cal.ni_cpu.mmio_reg_cycles},
        heap_base_{heap_base},
        core_stride_{core_stride},
        cores_{cores == 0 ? 1 : cores} {
    caches_.reserve(cores_ + 1);
    for (std::uint32_t c = 0; c <= cores_; ++c) {
      caches_.emplace_back(cal.ni_cpu.dcache);  // last entry: the arbiter
    }
  }

  void arith_int(Op op, int n) override { total_ += cost(int_costs_, op, n); }
  void arith_float(Op op, int n) override { total_ += cost(fp_costs_, op, n); }
  void mem(SimAddr addr) override { total_ += cache_for(addr).access(addr); }
  void reg() override { total_ += mmio_; }
  void cycles(std::int64_t n) override { total_ += n; }
  [[nodiscard]] bool accounted() const override { return true; }

  /// Core whose stream the scheduler is currently mutating; non-heap
  /// addresses (rings, stream state) bill this core's cache.
  void set_context(std::uint32_t core) { context_ = core; }

  [[nodiscard]] std::int64_t total() const { return total_; }
  [[nodiscard]] std::uint32_t cores() const { return cores_; }

 private:
  [[nodiscard]] static std::int64_t cost(const hw::ArithCosts& t, Op op,
                                         int n) {
    switch (op) {
      case Op::kAdd: return t.add * n;
      case Op::kMul: return t.mul * n;
      case Op::kDiv: return t.div * n;
      case Op::kCmp: return t.cmp * n;
    }
    return 0;
  }

  [[nodiscard]] hw::CacheModel& cache_for(SimAddr addr) {
    if (addr >= heap_base_) {
      const SimAddr off = addr - heap_base_;
      const SimAddr core = off / core_stride_;
      // Cores 0..N-1 own one stride each; the root heap pair occupies the
      // next stride and bills the arbiter (caches_[cores_]).
      if (core <= cores_) return caches_[static_cast<std::uint32_t>(core)];
    }
    return caches_[context_ < cores_ ? context_ : 0];
  }

  hw::ArithCosts int_costs_;
  hw::ArithCosts fp_costs_;
  std::int64_t mmio_;
  SimAddr heap_base_;
  SimAddr core_stride_;
  std::uint32_t cores_;
  std::vector<hw::CacheModel> caches_;  // cores_ shard caches + 1 arbiter
  std::uint32_t context_ = 0;
  std::int64_t total_ = 0;
};

}  // namespace nistream::dwcs
