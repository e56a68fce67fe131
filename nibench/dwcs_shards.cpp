// The dwcs_shards workload: the DWCS scheduler alone.
//
// 100k streams on ReprKind::kHierarchical with 4 shards and the null cost
// hook, in a closed decide-and-refill loop for a fixed decision count. The
// stream mix is scale_sweep's: 75% of streams share one period, so deadline
// ties are the common case, as in the paper's testbed.
//
// Host clock: loading the streams is `setup_s`, timed in a slice of loads
// after every batch (SetupSlices); the decision loop is `wall_s`. Batches (a
// fresh scheduler each) repeat until --seconds have passed and the medians
// are reported.
//
// Untimed passes, once per process:
//  * the same loop on a DualHeapRepr scheduler, whose dispatch hash the
//    hierarchical one must equal;
//  * `sim_decisions_per_s`: a prefix of the same decision stream replayed on
//    4 simulated cores with ParallelShardExecutor (dwcs/parallel.hpp).
#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "dwcs/hierarchical.hpp"
#include "dwcs/parallel.hpp"
#include "dwcs/scheduler.hpp"
#include "dwcs/shard_exec.hpp"
#include "hw/nic_board.hpp"
#include "mpeg/frame.hpp"
#include "rtos/wind.hpp"
#include "sim/random.hpp"

namespace nibench {
namespace {

using namespace nistream;

constexpr std::uint32_t kShards = 4;
constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

struct Shape {
  std::size_t streams;
  std::uint64_t decisions;  // per timed batch
  /// Replayed on the simulated cores. Pricing every mutation costs ~1 ms of
  /// host time per decision at 100k streams, so the replay takes a prefix
  /// of eight 256-decision rounds.
  std::uint64_t sim_decisions;
};

Shape shape_of(const Options& o) {
  return o.smoke ? Shape{2'000, 20'000, 512}
                 : Shape{100'000, 600'000, 2'048};
}

std::unique_ptr<dwcs::DwcsScheduler> make_scheduler(
    dwcs::ReprKind kind, std::size_t n, std::uint64_t seed,
    dwcs::CostHook* hook = nullptr) {
  dwcs::DwcsScheduler::Config cfg;
  cfg.repr = kind;
  cfg.hierarchical.shards = kShards;
  cfg.ring_capacity = 8;
  auto sched = hook != nullptr
                   ? std::make_unique<dwcs::DwcsScheduler>(cfg, *hook)
                   : std::make_unique<dwcs::DwcsScheduler>(cfg);
  sched->reserve_streams(n);
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
    dwcs::FrameDescriptor d;
    d.frame_id = i;
    d.bytes = mpeg::kPaperFrameBytes;
    (void)sched->enqueue(static_cast<dwcs::StreamId>(i), d,
                         sim::Time::zero());
  }
  return sched;
}

/// Which public call a timed span covers.
enum Call { kDecide, kEnqueue, kPeek };

struct Untimed {
  template <typename F>
  auto operator()(Call, F&& f) const {
    return f();
  }
};

/// Every public call timed on its own.
struct Timed {
  std::vector<std::int64_t> ns[3];
  template <typename F>
  auto operator()(Call c, F&& f) {
    const auto t0 = Clock::now();
    auto r = f();
    ns[c].push_back(ns_between(t0, Clock::now()));
    return r;
  }
};

/// One step of the closed loop: advance the scheduler's clock to the
/// earliest backlogged deadline, take one decision, and refill the
/// dispatched stream, so the population stays at n backlogged streams.
template <typename CallFn>
std::optional<dwcs::Dispatch> step(dwcs::DwcsScheduler& s, sim::Time& now,
                                   std::uint64_t& next_frame, CallFn& call) {
  const auto next = call(kPeek, [&] { return s.earliest_backlog_deadline(); });
  if (next && *next > now) now = *next;
  const auto d = call(kDecide, [&] { return s.schedule_next(now); });
  if (!d) return d;
  dwcs::FrameDescriptor refill;
  refill.frame_id = next_frame++;
  refill.bytes = mpeg::kPaperFrameBytes;
  refill.enqueued_at = now;
  call(kEnqueue, [&] { return s.enqueue(d->stream, refill, now); });
  return d;
}

/// A dispatch sequence: its length and an FNV-1a hash of its stream ids.
struct Dispatched {
  std::uint64_t decisions = 0;
  std::uint64_t fnv = kFnvBasis;
  std::uint64_t prefix_fnv = kFnvBasis;  // after the first `prefix` decisions

  void add(const dwcs::Dispatch& d, std::uint64_t prefix = 0) {
    fnv = (fnv ^ d.stream) * kFnvPrime;
    if (++decisions == prefix) prefix_fnv = fnv;
  }
};

template <typename CallFn>
Dispatched decide(dwcs::DwcsScheduler& s, std::size_t n,
                  std::uint64_t budget, std::uint64_t prefix, CallFn& call) {
  Dispatched r;
  sim::Time now = sim::Time::zero();
  std::uint64_t next_frame = n;
  while (r.decisions < budget) {
    const auto d = step(s, now, next_frame, call);
    if (!d) break;
    r.add(*d, prefix);
  }
  return r;
}

struct SimReplay {
  Dispatched dispatched;
  sim::Time elapsed;
  sim::Time arbiter_cpu;
};

/// Rounds of up to 256 decisions posted as shard and arbiter work, with a
/// fence between rounds so each round ends at a well-defined simulated time.
/// Every cycle a step charges beyond the traced shard and root mutations is
/// service work for the dispatched stream, billed to its owning core.
sim::Coro drive_replay(sim::Engine& eng, dwcs::DwcsScheduler& s,
                       dwcs::ShardCycleMeter& meter,
                       dwcs::ParallelShardExecutor& exec, std::size_t n,
                       std::uint64_t budget, SimReplay& r) {
  Untimed untimed;
  sim::Time now = sim::Time::zero();
  std::uint64_t next_frame = n;
  auto& done = r.dispatched;
  while (done.decisions < budget) {
    const std::uint64_t round =
        std::min<std::uint64_t>(256, budget - done.decisions);
    for (std::uint64_t k = 0; k < round; ++k) {
      const std::int64_t t0 = meter.total();
      const auto d = step(s, now, next_frame, untimed);
      if (!d) {
        budget = done.decisions;
        break;
      }
      done.add(*d);
      exec.finish_decision(dwcs::shard_of(d->stream, kShards),
                           meter.total() - t0);
    }
    co_await exec.fence();
  }
  r.elapsed = eng.now();
  r.arbiter_cpu = exec.arbiter_cpu_time();
  exec.shutdown();
}

/// The decision stream priced by ShardCycleMeter and replayed as parallel
/// work on a 4-core WindKernel: simulated decisions/s.
SimReplay replay_on_sim_cores(std::size_t n, std::uint64_t seed,
                              std::uint64_t budget) {
  SimReplay r;
  sim::Engine eng;
  hw::PciBus bus{eng};
  hw::EthernetSwitch ether{eng};
  hw::Calibration cal;
  cal.interconnect.cores = static_cast<int>(kShards);
  hw::NicBoard board{"ni0", eng, bus, ether, /*rx=*/{}, cal};
  rtos::WindKernel kernel{eng, board.cpu(), cal.rtos, board.num_cores()};
  dwcs::ShardCycleMeter meter{cal, kShards, /*heap_base=*/0x0100'0000,
                              dwcs::kCoreStride};
  auto sched = make_scheduler(dwcs::ReprKind::kHierarchical, n, seed, &meter);
  dwcs::ParallelShardExecutor exec{kernel, kShards};
  // Attached after loading, so the bulk load is not replayed as work.
  static_cast<dwcs::HierarchicalScheduler&>(sched->repr())
      .set_exec_trace(&exec, &meter);
  drive_replay(eng, *sched, meter, exec, n, budget, r).detach();
  eng.run_until(sim::Time::sec(1e9));
  return r;
}

struct Batch {
  double setup_s = 0;
  double wall_s = 0;
  double rss_mb = 0;  // the process's peak RSS once this batch has run
  Dispatched dispatched;
  std::uint64_t violations = 0;
};

template <typename CallFn>
Batch run_batch(const Shape& sh, std::uint64_t seed, CallFn& call) {
  Batch b;
  const auto t0 = Clock::now();
  auto sched = make_scheduler(dwcs::ReprKind::kHierarchical, sh.streams, seed);
  b.setup_s = seconds_since(t0);
  const auto t1 = Clock::now();
  b.dispatched = decide(*sched, sh.streams, sh.decisions, 0, call);
  b.wall_s = seconds_since(t1);
  b.rss_mb = peak_rss_mb();
  b.violations = sched->total_violations();
  return b;
}

double percentile_ns(std::vector<std::int64_t>& ns, double p) {
  std::sort(ns.begin(), ns.end());
  std::vector<double> v(ns.begin(), ns.end());
  return percentile_sorted(v, p);
}

}  // namespace

void run_dwcs_shards(const Options& o, Report& r) {
  const Shape sh = shape_of(o);
  Untimed untimed;
  std::vector<Batch> batches;
  Timed timed;
  Batch traced;

  // The first batch warms the allocator and the process's page tables. It
  // is checked like every other batch, but its times are not reported.
  const Batch warm = run_batch(sh, o.seed, untimed);
  SetupSlices setups;
  const auto load_once = [&] {
    const auto t0 = Clock::now();
    auto sched = make_scheduler(dwcs::ReprKind::kHierarchical, sh.streams,
                                o.seed);
    return seconds_since(t0);
  };
  const auto start = Clock::now();
  do {
    batches.push_back(run_batch(sh, o.seed, untimed));
    if (!o.trace) setups.slice(batches.back().setup_s, load_once);
  } while (!o.trace && seconds_since(start) < o.seconds);
  if (o.trace) traced = run_batch(sh, o.seed, timed);

  // Untimed: the dual-heap reference and the simulated-core replay.
  auto ref_sched =
      make_scheduler(dwcs::ReprKind::kDualHeap, sh.streams, o.seed);
  const Dispatched ref =
      decide(*ref_sched, sh.streams, sh.decisions, sh.sim_decisions, untimed);
  const SimReplay replay =
      replay_on_sim_cores(sh.streams, o.seed, sh.sim_decisions);
  const double sim_dps =
      replay.elapsed > sim::Time::zero()
          ? static_cast<double>(replay.dispatched.decisions) /
                replay.elapsed.to_sec()
          : 0;

  std::vector<double> walls;
  bool agree = true;
  bool full = true;
  const Batch& first = batches.front();
  const auto same_as_first = [&first](const Batch& b) {
    return b.dispatched.fnv == first.dispatched.fnv &&
           b.violations == first.violations;
  };
  for (const auto& b : batches) {
    walls.push_back(b.wall_s);
    agree = agree && same_as_first(b);
    full = full && b.dispatched.decisions == sh.decisions;
  }
  agree = agree && same_as_first(warm) && (!o.trace || same_as_first(traced));
  r.attempted = 1 + batches.size() + (o.trace ? 1 : 0) + 2;

  Fingerprint fp;
  for (const std::uint64_t v :
       {first.dispatched.decisions, first.dispatched.fnv, first.violations,
        replay.dispatched.decisions, replay.dispatched.fnv,
        static_cast<std::uint64_t>(replay.elapsed.raw_ns()),
        static_cast<std::uint64_t>(replay.arbiter_cpu.raw_ns())}) {
    fp.add(v);
  }
  fp.add_double(sim_dps);
  r.fingerprint = fp.h;

  if (!o.trace) {
    r.host("wall_s", median(walls), "s",
           sample_note(walls, "batches of " + std::to_string(sh.decisions) +
                                  " decisions"));
    r.host("setup_s", setups.median_s(), "s",
           setups.note("loads of " + std::to_string(sh.streams) + " streams"));
  } else {
    r.host("wall_s", first.wall_s, "s", "untraced batch");
    r.host("setup_s", first.setup_s, "s", "untraced batch");
  }
  r.host("peak_rss_mb", warm.rss_mb, "MB", "after the first batch");
  r.sim("sim_decisions_per_s", sim_dps, "1/s",
        std::to_string(replay.dispatched.decisions) + " decisions on " +
            std::to_string(kShards) + " simulated cores");
  r.sim("sim_ops_per_s", sim_dps, "1/s", "decisions, as sim_decisions_per_s");

  r.check("every batch took its full decision count", full);
  r.check(o.trace ? "traced dispatch sequence equals untraced"
                  : "same-seed batches agree",
          agree);
  r.check("dispatch sequence equals the dual-heap reference",
          ref.decisions == first.dispatched.decisions &&
              ref.fnv == first.dispatched.fnv);
  r.check("simulated-core replay dispatches the reference prefix",
          replay.dispatched.decisions == sh.sim_decisions &&
              replay.dispatched.fnv == ref.prefix_fnv);
  if (!o.trace) return;

  std::int64_t dwcs_ns = 0;
  for (const auto& v : timed.ns) {
    for (const std::int64_t ns : v) dwcs_ns += ns;
  }
  const auto traced_ns = static_cast<std::int64_t>(traced.wall_s * 1e9);
  std::int64_t self_ns[kLayers] = {};
  self_ns[kDwcs] = dwcs_ns;
  r.sim("dwcs.decisions", static_cast<double>(traced.dispatched.decisions),
        "count");
  r.host("dwcs.decision_ns_p50", percentile_ns(timed.ns[kDecide], 50), "ns",
         "schedule_next, each call timed");
  r.host("dwcs.decision_ns_p99", percentile_ns(timed.ns[kDecide], 99), "ns",
         "schedule_next, each call timed");
  r.host("dwcs.enqueue_ns_p50", percentile_ns(timed.ns[kEnqueue], 50), "ns",
         "enqueue, each call timed");
  r.sim("dwcs.violating_windows", static_cast<double>(traced.violations),
        "count", "DwcsScheduler::total_violations");
  report_layer_times(r, self_ns, std::max<std::int64_t>(traced_ns - dwcs_ns, 0),
                     false);
  r.host("host.tracing_overhead", traced.wall_s / first.wall_s, "ratio",
         "traced / untraced wall_s");
}

}  // namespace nibench
