// Wall-clock scale sweep: host-side decisions/sec and per-decision latency
// of `DwcsScheduler::schedule_next` at 1k / 10k / 100k / 1M concurrent
// streams, per schedule representation. The hierarchical (sharded multi-core)
// representation is swept over `--shards=1,2,4,8,16` as an ablation: shard
// count is the one new axis, everything else identical.
//
// This bench measures the HOST clock, not the simulated i960 clock: the
// scheduler runs with the null cost hook, so no cycles are charged and the
// numbers are pure data-structure throughput (see docs/performance.md for
// the two-clock model). Hierarchical cells additionally run a SIMULATED-clock
// pass (`sim_decisions_per_s`, `num_cores` in the JSON): the same decision
// stream replayed as parallel work on an N-core WindKernel — one rtos:: task
// per shard plus a root-arbiter task (dwcs/parallel.hpp) — so the multi-core
// NI's parallel mutation capacity is a measured number, not an assertion. The workload mirrors the paper's testbed shape —
// mostly-peer streams with a shared period, so deadline ties are the common
// case and the tie-break path dominates.
//
// A second family of configs measures the FULL simulated datapath, not just
// the scheduler: producer_path_a/b/c pipelines (disk/filesystem ->
// segmentation -> [bus] -> scheduler ring -> dispatch -> client) at 1k/10k
// concurrent streams, reported as host wall-clock frames/sec. This is the
// tracked number for the allocation-free event/coroutine core: every frame
// traversal is a coroutine chain over pooled frames and inline-storage
// events, so regressions in either show up here before anywhere else.
//
// A third family measures the ingress classification fast path
// (ingress::FlowTable): host wall-clock classification decisions/sec and
// per-decision latency at 1k/10k/100k/1M installed flows, ablated over the
// wildcard rule count (`--rules=w0,w64,w1024` — trie prefixes installed
// alongside the exact tuples). The lookup mix is ~80% exact hits / ~10%
// prefix-attributed / ~10% unmatched, the demux's steady state under a
// flood. Same two-pass discipline as the scheduler family: a 512-batch
// throughput pass, then an individually-timed latency pass.
//
// Output: a human-readable table on stdout plus BENCH_scale.json (path
// overridable via the positional arg) so successive PRs have a tracked perf
// trajectory. `--seed=<u64>` re-seeds the workload generator (default
// 0x5ca1e, the historical constant) and is echoed into the JSON.
// `--jobs=N` runs grid cells on N threads (cells are independent engines;
// results are emitted in grid order regardless). NOTE: parallel cells
// contend for cores, so publication-grade wall-clock numbers should use
// `--jobs 1`. `--smoke` shrinks the grid and budgets for CI gate runs.
// `--repr=<list>` selects the scheduler-family representations (default all
// five flat kinds including `pifo`, the DWCS-ranked PIFO engine; the
// hierarchical repr is swept separately via `--shards`).
//
// `--identity` switches to the CI decision-identity contract instead of a
// timed sweep: dual-heap, the PIFO rank engine (DWCS rank), hierarchical
// (each `--shards` value), and the simulated-parallel execution mode
// (hierarchical-par, each `--shards` value) each take the SAME fixed number
// of decisions at
// `--streams=N` (default 100k) from identically seeded workloads, and the
// binary exits non-zero unless every row dispatched the exact same stream
// sequence (count + FNV hash) as the dual-heap reference. This is the
// machine-checked form of the total-order argument: rules 1-5 end at
// "lowest stream id", so the full DWCS order has no ties — one rank
// function, one order, whatever structure holds it (dual heap, PIFO heap,
// min over per-shard minima at any shard count).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "apps/client.hpp"
#include "apps/media_server.hpp"
#include "apps/producer.hpp"
#include "bench_util.hpp"
#include "cli.hpp"
#include "dwcs/hierarchical.hpp"
#include "dwcs/parallel.hpp"
#include "dwcs/scheduler.hpp"
#include "dwcs/shard_exec.hpp"
#include "hostos/filesystem.hpp"
#include "hw/nic_board.hpp"
#include "ingress/flow_table.hpp"
#include "mpeg/frame.hpp"
#include "runner.hpp"
#include "sim/random.hpp"

using namespace nistream;
using Clock = std::chrono::steady_clock;

namespace {

struct SweepResult {
  std::string repr;
  std::uint32_t shards = 0;  // non-zero only for the hierarchical repr
  std::size_t streams = 0;
  bool skipped = false;
  const char* skip_reason = "";
  std::uint64_t decisions = 0;
  double elapsed_sec = 0;
  double decisions_per_sec = 0;
  double p50_ns = 0;
  double p99_ns = 0;
  // Simulated-parallel pass (hierarchical cells only; num_cores == 0 means
  // the pass did not run): decisions/s on the SIMULATED clock with one
  // rtos:: task per shard on an N-core WindKernel.
  std::uint32_t num_cores = 0;
  std::uint64_t sim_decisions = 0;
  double sim_elapsed_sec = 0;
  double sim_decisions_per_s = 0;
};

double elapsed_sec(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Build a scheduler with `n` mostly-peer streams (75% share one period, so
/// deadline ties are the common case, as in the paper's testbed) and a small
/// standing backlog per stream.
std::unique_ptr<dwcs::DwcsScheduler> make_loaded_scheduler(
    dwcs::ReprKind kind, std::uint32_t shards, std::size_t n,
    std::uint64_t seed, dwcs::CostHook* hook = nullptr) {
  dwcs::DwcsScheduler::Config cfg;
  cfg.repr = kind;
  cfg.hierarchical.shards = shards == 0 ? 1 : shards;
  cfg.ring_capacity = 8;
  auto sched = hook != nullptr
                   ? std::make_unique<dwcs::DwcsScheduler>(cfg, *hook)
                   : std::make_unique<dwcs::DwcsScheduler>(cfg);
  sim::Rng rng{seed ^ n};
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t y = 2 + static_cast<std::int64_t>(rng.below(6));
    const std::int64_t x = static_cast<std::int64_t>(
        rng.below(static_cast<std::uint64_t>(y)));
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
    d.enqueued_at = sim::Time::zero();
    (void)sched->enqueue(static_cast<dwcs::StreamId>(i), d, sim::Time::zero());
  }
  return sched;
}

/// One scheduling step: advance simulated time to the earliest backlogged
/// deadline, take a decision, and immediately re-enqueue a frame to the
/// dispatched stream so the backlog (and the representation's population)
/// stays at exactly `n` streams throughout the measurement.
bool step(dwcs::DwcsScheduler& sched, sim::Time& now, std::uint64_t& next_fid) {
  if (const auto next = sched.earliest_backlog_deadline(); next && *next > now) {
    now = *next;
  }
  const auto d = sched.schedule_next(now);
  if (!d) return false;
  dwcs::FrameDescriptor refill;
  refill.frame_id = next_fid++;
  refill.bytes = mpeg::kPaperFrameBytes;
  refill.enqueued_at = now;
  (void)sched.enqueue(d->stream, refill, now);
  return true;
}

// ---------------------------------------------------------------------------
// Simulated-parallel pass: replay the hierarchical scheduler's cycle trace on
// an N-core WindKernel (one equal-priority task per shard plus one arbiter
// task; dwcs/parallel.hpp) and measure decisions/s on the SIMULATED clock —
// the number the serial host loop structurally cannot show. The dispatch FNV
// is folded exactly like the identity cells, so parallel-mode rows join the
// --identity gate: parallel TIME modeling, bit-identical DISPATCH sequence.
// ---------------------------------------------------------------------------

struct SimParallelResult {
  std::uint64_t decisions = 0;
  std::uint64_t dispatch_fnv = 0;
  double sim_elapsed_sec = 0;
  std::uint32_t num_cores = 0;
};

/// Driver process: rounds of up to 256 decisions posted as shard/arbiter work
/// items, a fence between rounds so each round has a well-defined simulated
/// end time, shutdown once the budget is spent.
sim::Coro drive_parallel(sim::Engine& eng, dwcs::DwcsScheduler& sched,
                         dwcs::ShardCycleMeter& meter,
                         dwcs::ParallelShardExecutor& exec, std::size_t n,
                         std::uint64_t budget, SimParallelResult& r) {
  const std::uint32_t shards = exec.shards();
  sim::Time now = sim::Time::zero();  // scheduler-logical deadline clock
  std::uint64_t fid = n;
  std::uint64_t fnv = 14695981039346656037ull;
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
        budget = r.decisions;  // drained; fall through to the final fence
        break;
      }
      ++r.decisions;
      fnv = (fnv ^ static_cast<std::uint64_t>(d->stream)) * 1099511628211ull;
      dwcs::FrameDescriptor refill;
      refill.frame_id = fid++;
      refill.bytes = mpeg::kPaperFrameBytes;
      refill.enqueued_at = now;
      (void)sched.enqueue(d->stream, refill, now);
      // Bracket covers decision + refill: every cycle the meter charged
      // beyond the traced shard/root mutations (decision overhead, ring
      // ops, window adjustments, stream-state touches) is service work for
      // the dispatched stream and runs on its owning core.
      exec.finish_decision(dwcs::shard_of(d->stream, shards),
                           meter.total() - t0);
    }
    co_await exec.fence();
  }
  r.dispatch_fnv = fnv;
  r.sim_elapsed_sec = eng.now().to_sec();
  exec.shutdown();
}

SimParallelResult run_sim_parallel(std::uint32_t shards, std::size_t n,
                                   std::uint64_t seed, std::uint64_t budget) {
  SimParallelResult r;
  sim::Engine eng;
  hw::PciBus bus{eng};
  hw::EthernetSwitch ether{eng};
  hw::Calibration cal;
  // One knob drives both models: the board builds `shards` cores
  // (cal.interconnect.cores), and the wind kernel schedules across exactly
  // board.num_cores() — the cycle model and the task model cannot disagree.
  cal.interconnect.cores = static_cast<int>(shards == 0 ? 1 : shards);
  hw::NicBoard board{"ni0", eng, bus, ether, /*rx=*/{}, cal};
  r.num_cores = static_cast<std::uint32_t>(board.num_cores());
  rtos::WindKernel kernel{eng, board.cpu(), cal.rtos, board.num_cores()};
  dwcs::ShardCycleMeter meter{cal, shards, /*heap_base=*/0x0100'0000,
                              dwcs::kCoreStride};
  auto sched = make_loaded_scheduler(dwcs::ReprKind::kHierarchical, shards, n,
                                     seed, &meter);
  dwcs::ParallelShardExecutor exec{kernel, shards};
  // Attach AFTER setup so the bulk-load mutations are not replayed as work.
  static_cast<dwcs::HierarchicalScheduler&>(sched->repr())
      .set_exec_trace(&exec, &meter);
  drive_parallel(eng, *sched, meter, exec, n, budget, r).detach();
  eng.run_until(sim::Time::sec(1e9));
  return r;
}

SweepResult run_config(dwcs::ReprKind kind, std::uint32_t shards,
                       std::size_t n, std::uint64_t seed,
                       double throughput_budget_sec,
                       double latency_budget_sec, std::uint64_t sim_budget) {
  SweepResult r;
  r.repr = dwcs::to_string(kind);
  r.shards = kind == dwcs::ReprKind::kHierarchical ? shards : 0;
  r.streams = n;
  if (kind == dwcs::ReprKind::kSortedList && n > 20'000) {
    // O(n) insert per enqueue makes even the setup phase O(n^2); at 100k
    // streams that is minutes of wall-clock for a number that is already
    // unambiguous at 10k. Recorded as skipped, not silently dropped.
    r.skipped = true;
    r.skip_reason = "setup is O(n^2) at this scale";
    return r;
  }
  if (kind == dwcs::ReprKind::kFcfs && n >= 1'000'000) {
    // pick() and earliest_deadline() are O(n) scans, so one 512-decision
    // batch of the throughput loop touches ~10^9 stream views at 1M streams
    // — minutes of wall-clock for a number already unambiguous at 100k.
    r.skipped = true;
    r.skip_reason = "O(n)-scan pick makes the measurement loop O(n^2) at "
                    "this scale";
    return r;
  }

  // Throughput pass: no per-decision clock reads; check the budget every
  // 512 decisions so timer overhead does not pollute decisions/sec.
  {
    auto sched = make_loaded_scheduler(kind, shards, n, seed);
    sim::Time now = sim::Time::zero();
    std::uint64_t fid = n;
    const auto t0 = Clock::now();
    double el = 0;
    std::uint64_t decisions = 0;
    for (;;) {
      for (int k = 0; k < 512; ++k) {
        if (step(*sched, now, fid)) ++decisions;
      }
      el = elapsed_sec(t0);
      if (el >= throughput_budget_sec) break;
    }
    r.decisions = decisions;
    r.elapsed_sec = el;
    r.decisions_per_sec = static_cast<double>(decisions) / el;
  }

  // Latency pass: fresh scheduler, every decision timed individually.
  {
    auto sched = make_loaded_scheduler(kind, shards, n, seed);
    sim::Time now = sim::Time::zero();
    std::uint64_t fid = n;
    std::vector<std::uint32_t> lat_ns;
    lat_ns.reserve(1 << 20);
    const auto t0 = Clock::now();
    while (elapsed_sec(t0) < latency_budget_sec &&
           lat_ns.size() < lat_ns.capacity()) {
      const auto a = Clock::now();
      const bool ok = step(*sched, now, fid);
      const auto b = Clock::now();
      if (!ok) continue;
      const auto ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
      lat_ns.push_back(static_cast<std::uint32_t>(
          std::min<std::int64_t>(ns, UINT32_MAX)));
    }
    if (!lat_ns.empty()) {
      std::sort(lat_ns.begin(), lat_ns.end());
      r.p50_ns = lat_ns[lat_ns.size() / 2];
      r.p99_ns = lat_ns[lat_ns.size() - 1 - lat_ns.size() / 100];
    }
  }

  // Simulated-parallel pass (hierarchical cells): fixed decision count so
  // sim_decisions_per_s is comparable across shard counts at equal work.
  if (kind == dwcs::ReprKind::kHierarchical && sim_budget > 0) {
    const auto sp = run_sim_parallel(shards, n, seed, sim_budget);
    r.num_cores = sp.num_cores;
    r.sim_decisions = sp.decisions;
    r.sim_elapsed_sec = sp.sim_elapsed_sec;
    r.sim_decisions_per_s =
        sp.sim_elapsed_sec > 0
            ? static_cast<double>(sp.decisions) / sp.sim_elapsed_sec
            : 0;
  }
  return r;
}

// ---------------------------------------------------------------------------
// Datapath family: producer_path_a/b/c end-to-end, wall-clock frames/sec.
// ---------------------------------------------------------------------------

struct PathResult {
  const char* path = "";
  std::size_t streams = 0;
  std::uint64_t frames = 0;     // frames pushed through the full pipeline
  std::uint64_t delivered = 0;  // frames that reached the client
  double elapsed_sec = 0;
  double frames_per_sec = 0;
};

/// Run `n` concurrent producer pipelines of the given path family
/// (a = host fs -> host scheduler, b = NI disk -> PCI -> scheduler NI,
/// c = NI disk -> same-card scheduler), each pumping `frames_per_stream`
/// fixed-size frames into a real scheduler service that dispatches to a
/// client. Reported frames/sec is HOST wall-clock over the whole run
/// (pumps + dispatch drain): simulation throughput of the full datapath.
PathResult run_datapath(char which, std::size_t n,
                        std::uint64_t frames_per_stream) {
  PathResult r;
  r.path = which == 'a'   ? "producer_path_a"
           : which == 'b' ? "producer_path_b"
                          : "producer_path_c";
  r.streams = n;

  sim::Engine eng;
  hw::PciBus bus{eng};
  hw::EthernetSwitch ether{eng};
  apps::MpegClient client{eng, ether};
  std::vector<path::PathStats> stats(n);
  const dwcs::StreamParams params{
      .tolerance = {1, 4}, .period = sim::Time::ms(33), .lossy = true};

  const auto source_for = [frames_per_stream](dwcs::StreamId sid,
                                              std::size_t i,
                                              path::Provenance prov) {
    // Per-stream file base 16 MB apart, frames laid out back to back.
    const std::uint64_t base = static_cast<std::uint64_t>(i) * 0x0100'0000ull;
    return path::fixed_frame_source(
        frames_per_stream, mpeg::kPaperFrameBytes,
        [base](std::uint64_t seq) {
          return base + seq * mpeg::kPaperFrameBytes;
        },
        sid, prov);
  };
  // Run in one-second simulated slices until every pump drained its source
  // (the engine stops early whenever its queue is empty), then a short grace
  // so in-flight dispatches reach the client.
  const auto drain = [&] {
    const auto done = [&] {
      for (const auto& s : stats) {
        if (!s.finished) return false;
      }
      return true;
    };
    sim::Time cap = sim::Time::zero();
    while (!done() && cap < sim::Time::sec(4000)) {
      cap = cap + sim::Time::sec(1);
      eng.run_until(cap);
    }
    eng.run_until(cap + sim::Time::sec(2));
  };

  const auto t0 = Clock::now();
  if (which == 'a') {
    hostos::HostMachine host{eng, 2};
    hw::Calibration cal;
    hw::ScsiDisk disk{eng, cal.disk, 11};
    hostos::UfsFilesystem fs{eng, disk, cal.fs};
    apps::HostSchedulerServer server{host, ether};
    for (std::size_t i = 0; i < n; ++i) {
      const auto sid = server.service().create_stream(params, client.port());
      auto& proc =
          host.spawn("pump" + std::to_string(i), hostos::kDefaultPriority);
      apps::detail::pump_owned(
          path::producer_path_a(host, proc, fs, server.service()),
          source_for(sid, i, path::Provenance::kHostFile), {}, stats[i])
          .detach();
    }
    drain();
  } else {
    apps::NiSchedulerServer server{eng, bus, ether};
    for (std::size_t i = 0; i < n; ++i) {
      const auto sid = server.service().create_stream(params, client.port());
      rtos::Task& task = server.kernel().spawn("pump" + std::to_string(i), 120);
      auto p = which == 'b'
                   ? path::producer_path_b(eng, server.board().disk(0), task,
                                           bus, server.service())
                   : path::producer_path_c(eng, server.board().disk(0), task,
                                           server.service());
      apps::detail::pump_owned(std::move(p),
                               source_for(sid, i, path::Provenance::kNiDisk),
                               {}, stats[i])
          .detach();
    }
    drain();
  }
  r.elapsed_sec = elapsed_sec(t0);

  for (const auto& s : stats) r.frames += s.frames_produced;
  r.delivered = client.total_frames();
  r.frames_per_sec =
      r.elapsed_sec > 0 ? static_cast<double>(r.frames) / r.elapsed_sec : 0;
  return r;
}

// ---------------------------------------------------------------------------
// Classification family: ingress::FlowTable decisions/sec, rule ablation.
// ---------------------------------------------------------------------------

struct ClassResult {
  std::string rules;  // axis label as given on the command line ("w64")
  std::size_t wildcards = 0;
  std::size_t flows = 0;
  std::uint64_t lookups = 0;
  double elapsed_sec = 0;
  double lookups_per_sec = 0;
  double p50_ns = 0;
  double p99_ns = 0;
  std::uint64_t exact_hits = 0;
  std::uint64_t trie_hits = 0;
  std::uint64_t misses = 0;
};

/// Canonical bench key for stream `s`: even streams live in the full-tuple
/// category, odd streams in a (src, dst, proto) host-pair category whose
/// address carries the distinction (that mask ignores ports, and a /16 only
/// has 16 host bits, so the high stream bits go into dst_ip).
ingress::FlowKey class_key_for(dwcs::StreamId s) {
  const ingress::TenantId tenant = 1 + (s & 3u);
  ingress::FlowKey k = ingress::flow_key_of(tenant, s);
  if (s % 2 != 0) {
    k.src_ip = ingress::tenant_prefix_of(tenant) | (s & 0xFFFFu);
    k.dst_ip = 0xC0A8'0000u | (s >> 16);
  }
  return k;
}

/// Build a table with `flows` exact rules split across two categories plus
/// `wildcards` /24 trie prefixes, then run the two-pass measurement over a
/// pre-rendered seeded key mix (~80% exact / ~10% trie / ~10% miss).
ClassResult run_classification(const std::string& label, std::size_t wildcards,
                               std::size_t flows, std::uint64_t seed,
                               double throughput_budget_sec,
                               double latency_budget_sec) {
  ClassResult r;
  r.rules = label;
  r.wildcards = wildcards;
  r.flows = flows;

  ingress::FlowTable::Config cfg;
  // N distinct /24s need < 2N+32 trie nodes even fully unshared.
  cfg.trie_nodes = std::max<std::size_t>(8192, 4 * wildcards);
  cfg.trie_rules = wildcards + 8;
  ingress::FlowTable table{cfg};
  const auto full = table.add_category(ingress::kMatchFullTuple,
                                       flows / 2 + 1);
  const auto host = table.add_category(
      ingress::kMatchSrcIp | ingress::kMatchDstIp | ingress::kMatchProto,
      flows / 2 + 1);
  for (dwcs::StreamId s = 0; s < flows; ++s) {
    const ingress::TenantId tenant = 1 + (s & 3u);
    if (!table.insert(s % 2 == 0 ? full : host, class_key_for(s), tenant, s)) {
      std::fprintf(stderr, "classification setup: insert failed at %u\n", s);
      std::exit(1);
    }
  }
  // Wildcard prefixes in 10.128/9 — disjoint from the exact tenants' /16s,
  // so every prefix hit is a genuine trie decision.
  for (std::size_t i = 0; i < wildcards; ++i) {
    if (!table.insert_prefix(0x0A80'0000u | (static_cast<std::uint32_t>(i)
                                             << 8),
                             24, static_cast<ingress::TenantId>(100 + i))) {
      std::fprintf(stderr, "classification setup: prefix %zu failed\n", i);
      std::exit(1);
    }
  }

  // Pre-render the key mix so the measured loop is classify() and nothing
  // else; the same mix (mod capacity) cycles through both passes.
  constexpr std::size_t kMixMask = 4095;
  std::vector<ingress::FlowKey> keys;
  keys.reserve(kMixMask + 1);
  sim::Rng rng{seed ^ (flows * 1099511628211ull) ^ wildcards};
  for (std::size_t i = 0; i <= kMixMask; ++i) {
    const std::uint64_t roll = rng.below(100);
    if (wildcards > 0 && roll < 10) {
      ingress::FlowKey k = class_key_for(0);
      k.src_ip = 0x0A80'0000u |
                 (static_cast<std::uint32_t>(rng.below(wildcards)) << 8) |
                 static_cast<std::uint32_t>(rng.below(256));
      keys.push_back(k);
    } else if (roll < 20) {
      ingress::FlowKey k = class_key_for(0);
      k.src_ip = 0x0AC8'0000u | static_cast<std::uint32_t>(rng.below(1 << 16));
      keys.push_back(k);  // 10.200/16: no exact rule, no prefix
    } else {
      keys.push_back(class_key_for(
          static_cast<dwcs::StreamId>(rng.below(flows))));
    }
  }

  // Throughput pass: budget checked every 512 decisions, like run_config.
  {
    const auto t0 = Clock::now();
    double el = 0;
    std::uint64_t lookups = 0;
    std::uint64_t sink = 0;
    for (;;) {
      for (int k = 0; k < 512; ++k) {
        sink += static_cast<std::uint64_t>(
            table.classify(keys[lookups & kMixMask]).match ==
            ingress::Match::kExact);
        ++lookups;
      }
      el = elapsed_sec(t0);
      if (el >= throughput_budget_sec) break;
    }
    if (sink == 0) std::fprintf(stderr, "classification: no exact hits?\n");
    r.lookups = lookups;
    r.elapsed_sec = el;
    r.lookups_per_sec = static_cast<double>(lookups) / el;
  }

  // Latency pass: every decision timed individually.
  {
    std::vector<std::uint32_t> lat_ns;
    lat_ns.reserve(1 << 20);
    std::uint64_t i = 0;
    const auto t0 = Clock::now();
    while (elapsed_sec(t0) < latency_budget_sec &&
           lat_ns.size() < lat_ns.capacity()) {
      const auto a = Clock::now();
      const auto d = table.classify(keys[i++ & kMixMask]);
      const auto b = Clock::now();
      (void)d;
      const auto ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
      lat_ns.push_back(static_cast<std::uint32_t>(
          std::min<std::int64_t>(ns, UINT32_MAX)));
    }
    if (!lat_ns.empty()) {
      std::sort(lat_ns.begin(), lat_ns.end());
      r.p50_ns = lat_ns[lat_ns.size() / 2];
      r.p99_ns = lat_ns[lat_ns.size() - 1 - lat_ns.size() / 100];
    }
  }

  const auto st = table.stats();
  r.exact_hits = st.exact_hits;
  r.trie_hits = st.trie_hits;
  r.misses = st.misses;
  return r;
}

/// `--rules=w0,w64,w1024`: each token is `w<N>`, N = wildcard prefix count
/// installed next to the exact rules. Malformed tokens are a hard error,
/// same policy as the numeric flag parsers.
std::vector<std::pair<std::string, std::size_t>> rules_flag(int argc,
                                                            char** argv) {
  std::vector<std::pair<std::string, std::size_t>> out;
  for (const std::string& tok :
       bench::flag_str_list(argc, argv, "rules", "w0,w64,w1024")) {
    char* end = nullptr;
    const unsigned long long v =
        tok.size() > 1 && tok[0] == 'w'
            ? std::strtoull(tok.c_str() + 1, &end, 0)
            : 0;
    // Cap keeps the ruled /24s below 10.146/16, clear of the 10.200/16
    // miss traffic.
    if (end == nullptr || end == tok.c_str() + 1 || *end != '\0' ||
        v > 4096) {
      std::fprintf(stderr,
                   "bad --rules entry: '%s' (expect w<N>, N <= 4096)\n",
                   tok.c_str());
      std::exit(2);
    }
    out.emplace_back(tok, static_cast<std::size_t>(v));
  }
  if (out.empty()) out.emplace_back("w0", 0);
  return out;
}

void write_config(bench::Json& j, const SweepResult& r) {
  j.s("repr", r.repr).u("streams", r.streams);
  if (r.shards != 0) j.u("shards", r.shards);
  if (r.skipped) {
    j.b("skipped", true).s("skip_reason", r.skip_reason);
    return;
  }
  j.u("decisions", r.decisions).f("elapsed_sec", r.elapsed_sec, 3)
      .f("decisions_per_sec", r.decisions_per_sec, 0)
      .f("p50_ns", r.p50_ns, 0).f("p99_ns", r.p99_ns, 0);
  if (r.num_cores != 0) {
    j.u("num_cores", r.num_cores).u("sim_decisions", r.sim_decisions)
        .f("sim_elapsed_sec", r.sim_elapsed_sec, 6)
        .f("sim_decisions_per_s", r.sim_decisions_per_s, 0);
  }
}

void write_class(bench::Json& j, const ClassResult& c) {
  j.s("rules", c.rules).u("wildcards", c.wildcards).u("flows", c.flows)
      .u("lookups", c.lookups).f("elapsed_sec", c.elapsed_sec, 3)
      .f("decisions_per_sec", c.lookups_per_sec, 0)
      .f("p50_ns", c.p50_ns, 0).f("p99_ns", c.p99_ns, 0)
      .u("exact_hits", c.exact_hits).u("trie_hits", c.trie_hits)
      .u("misses", c.misses);
}

void write_path(bench::Json& j, const PathResult& p) {
  j.s("path", p.path).u("streams", p.streams).u("frames", p.frames)
      .u("delivered", p.delivered).f("elapsed_sec", p.elapsed_sec, 3)
      .f("frames_per_sec", p.frames_per_sec, 0);
}

bool write_json(const std::vector<SweepResult>& results,
                const std::vector<PathResult>& paths,
                const std::vector<ClassResult>& classes,
                const std::string& path, std::uint64_t seed, unsigned jobs) {
  std::ofstream out{path};
  if (!out) {
    std::printf("could not write %s\n", path.c_str());
    return false;
  }
  bench::Json doc = bench::open_doc(out, "scale_sweep", jobs);
  doc.u("seed", seed).object("unit", [](bench::Json& unit) {
    unit.s("decisions_per_sec", "1/s").s("latency", "ns")
        .s("frames_per_sec", "1/s");
  });
  doc.list("configs", results.size(), 4, 2,
           [&](std::size_t i, bench::Json& j) { write_config(j, results[i]); })
      .list("classification", classes.size(), 4, 2,
            [&](std::size_t i, bench::Json& j) { write_class(j, classes[i]); })
      .list("datapaths", paths.size(), 4, 2,
            [&](std::size_t i, bench::Json& j) { write_path(j, paths[i]); })
      .close("\n}\n");
  std::printf("wrote %s\n", path.c_str());
  return true;
}

// ---------------------------------------------------------------------------
// --identity: the CI decision-identity contract.
// ---------------------------------------------------------------------------

struct IdentityRow {
  std::string repr;
  std::uint32_t shards = 0;
  std::uint64_t decisions = 0;
  std::uint64_t dispatch_fnv = 0;
};

/// Take exactly `budget` decisions and fold every dispatched stream id into
/// an FNV-1a hash: two reprs that agree on (decisions, dispatch_fnv) made
/// the same decision at every step.
IdentityRow run_identity_cell(dwcs::ReprKind kind, std::uint32_t shards,
                              std::size_t n, std::uint64_t seed,
                              std::uint64_t budget) {
  IdentityRow row;
  row.repr = dwcs::to_string(kind);
  row.shards = kind == dwcs::ReprKind::kHierarchical ? shards : 0;
  auto sched = make_loaded_scheduler(kind, shards, n, seed);
  sim::Time now = sim::Time::zero();
  std::uint64_t fid = n;
  std::uint64_t fnv = 14695981039346656037ull;
  for (std::uint64_t k = 0; k < budget; ++k) {
    if (const auto next = sched->earliest_backlog_deadline();
        next && *next > now) {
      now = *next;
    }
    const auto d = sched->schedule_next(now);
    if (!d) break;
    ++row.decisions;
    fnv = (fnv ^ static_cast<std::uint64_t>(d->stream)) * 1099511628211ull;
    dwcs::FrameDescriptor refill;
    refill.frame_id = fid++;
    refill.bytes = mpeg::kPaperFrameBytes;
    refill.enqueued_at = now;
    (void)sched->enqueue(d->stream, refill, now);
  }
  row.dispatch_fnv = fnv;
  return row;
}

int run_identity(const std::vector<std::uint32_t>& shard_list, std::size_t n,
                 std::uint64_t seed, std::uint64_t budget,
                 const std::string& out_path, unsigned jobs) {
  // Row 0 is the dual-heap reference, row 1 the flat PIFO rank engine under
  // the DWCS rank, then hierarchical at every shard count, then the
  // simulated-parallel execution mode at every shard count (appended last so
  // pre-existing row positions stay stable for line-oriented CI diffs).
  const std::size_t n_serial = 2 + shard_list.size();
  std::vector<IdentityRow> rows(n_serial + shard_list.size());
  bench::run_cells(rows.size(), jobs, [&](std::size_t i) {
    if (i == 0) {
      rows[i] =
          run_identity_cell(dwcs::ReprKind::kDualHeap, 0, n, seed, budget);
    } else if (i == 1) {
      rows[i] = run_identity_cell(dwcs::ReprKind::kPifo, 0, n, seed, budget);
    } else if (i < n_serial) {
      rows[i] = run_identity_cell(dwcs::ReprKind::kHierarchical,
                                  shard_list[i - 2], n, seed, budget);
    } else {
      const std::uint32_t shards = shard_list[i - n_serial];
      const auto sp = run_sim_parallel(shards, n, seed, budget);
      rows[i] = IdentityRow{"hierarchical-par", shards, sp.decisions,
                            sp.dispatch_fnv};
    }
  });

  std::printf("==== scale sweep --identity: %zu streams, %llu decisions "
              "====\n",
              n, static_cast<unsigned long long>(budget));
  std::printf("%-16s %8s %12s %18s\n", "repr", "shards", "decisions",
              "dispatch_fnv");
  bool ok = true;
  for (const auto& r : rows) {
    const bool match = r.decisions == rows[0].decisions &&
                       r.dispatch_fnv == rows[0].dispatch_fnv;
    ok = ok && match;
    std::printf("%-16s %8u %12llu %18llx%s\n", r.repr.c_str(), r.shards,
                static_cast<unsigned long long>(r.decisions),
                static_cast<unsigned long long>(r.dispatch_fnv),
                match ? "" : "  <-- MISMATCH vs dual-heap");
  }

  std::ofstream out{out_path};
  if (!out) {
    std::printf("could not write %s\n", out_path.c_str());
    return 1;
  }
  bench::Json doc = bench::open_doc(out, "scale_sweep_identity", jobs);
  doc.u("seed", seed).u("streams", n);
  doc.list("rows", rows.size(), 4, 2, [&](std::size_t i, bench::Json& j) {
    const auto& r = rows[i];
    char fnv[17];
    std::snprintf(fnv, sizeof fnv, "%llx",
                  static_cast<unsigned long long>(r.dispatch_fnv));
    j.s("repr", r.repr).u("shards", r.shards).u("decisions", r.decisions)
        .s("dispatch_fnv", fnv);
  }).b("identical", ok).close("\n}\n");
  std::printf("wrote %s\n", out_path.c_str());
  if (!ok) std::printf("DECISION-IDENTITY VIOLATION\n");
  return ok ? 0 : 1;
}

/// `--repr=dual-heap,pifo,...`: the flat representations to sweep. The
/// hierarchical repr has its own shard axis and is always appended via
/// `--shards`; naming it here is an error, as is any unknown token.
std::vector<dwcs::ReprKind> repr_flag(int argc, char** argv) {
  static constexpr dwcs::ReprKind kFlat[] = {
      dwcs::ReprKind::kDualHeap, dwcs::ReprKind::kSortedList,
      dwcs::ReprKind::kFcfs, dwcs::ReprKind::kCalendarQueue,
      dwcs::ReprKind::kPifo};
  std::vector<dwcs::ReprKind> out;
  for (const std::string& tok : bench::flag_str_list(
           argc, argv, "repr",
           "dual-heap,sorted-list,fcfs,calendar-queue,pifo")) {
    const auto* kind = std::find_if(
        std::begin(kFlat), std::end(kFlat),
        [&](dwcs::ReprKind k) { return tok == dwcs::to_string(k); });
    if (kind == std::end(kFlat)) {
      std::fprintf(stderr,
                   "bad --repr entry: '%s' (known: dual-heap, sorted-list, "
                   "fcfs, calendar-queue, pifo; hierarchical is swept via "
                   "--shards)\n",
                   tok.c_str());
      std::exit(2);
    }
    out.push_back(*kind);
  }
  if (out.empty()) out.push_back(dwcs::ReprKind::kDualHeap);
  return out;
}

/// `--shards` via the shared list parser; zero entries clamp to 1 (a 0-shard
/// hierarchical scheduler is meaningless) and an empty list means 1.
std::vector<std::uint32_t> shard_flag(int argc, char** argv) {
  std::vector<std::uint32_t> out;
  for (const std::uint64_t v :
       bench::flag_u64_list(argc, argv, "shards", "1,2,4,8,16")) {
    out.push_back(v == 0 ? 1u : static_cast<std::uint32_t>(v));
  }
  if (out.empty()) out.push_back(1);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed = bench::flag_u64(argc, argv, "seed", 0x5ca1e);
  const unsigned jobs = bench::flag_jobs(argc, argv);
  const bool smoke = bench::flag_present(argc, argv, "smoke");
  const bool identity = bench::flag_present(argc, argv, "identity");
  const std::vector<std::uint32_t> shard_list = shard_flag(argc, argv);
  // --identity only.
  const std::size_t identity_streams = static_cast<std::size_t>(
      bench::flag_u64(argc, argv, "streams", 100'000));
  const std::uint64_t identity_budget =
      bench::flag_u64(argc, argv, "decisions", 20'000);
  // Throughput sweep only.
  const std::vector<dwcs::ReprKind> kinds = repr_flag(argc, argv);
  const auto rules_list = rules_flag(argc, argv);
  const std::string out_path = bench::out_path(
      argc, argv, identity ? "BENCH_scale_identity.json" : "BENCH_scale.json");
  bench::reject_unknown_flags(argc, argv);

  if (identity) {
    return run_identity(shard_list, identity_streams, seed, identity_budget,
                        out_path, jobs);
  }

  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{1'000}
            : std::vector<std::size_t>{1'000, 10'000, 100'000, 1'000'000};
  const double throughput_budget = smoke ? 0.02 : 0.25;
  const double latency_budget = smoke ? 0.02 : 0.15;
  // Fixed decision count (not a wall-clock budget) for the simulated-parallel
  // pass: the simulated clock is deterministic, so equal work per cell makes
  // sim_decisions_per_s directly comparable across shard counts.
  const std::uint64_t sim_budget = smoke ? 2'000 : 20'000;

  struct ReprCell {
    dwcs::ReprKind kind;
    std::uint32_t shards;
    std::size_t streams;
  };
  std::vector<ReprCell> repr_cells;
  for (const auto kind : kinds) {
    for (const auto n : sizes) repr_cells.push_back({kind, 0, n});
  }
  // Shard-count ablation: the hierarchical repr at every size x shard count.
  for (const auto sh : shard_list) {
    for (const auto n : sizes) {
      repr_cells.push_back({dwcs::ReprKind::kHierarchical, sh, n});
    }
  }

  std::printf("==== scale sweep: wall-clock schedule_next throughput, "
              "jobs=%u%s ====\n",
              jobs, smoke ? " (smoke)" : "");
  std::vector<SweepResult> results(repr_cells.size());
  bench::run_cells(repr_cells.size(), jobs, [&](std::size_t i) {
    results[i] = run_config(repr_cells[i].kind, repr_cells[i].shards,
                            repr_cells[i].streams, seed, throughput_budget,
                            latency_budget, sim_budget);
  });
  std::printf("%-16s %8s %10s %16s %12s %12s %8s %14s\n", "repr", "shards",
              "streams", "decisions/sec", "p50 ns", "p99 ns", "cores",
              "sim dec/s");
  for (const auto& r : results) {
    char shards_col[16] = "-";
    if (r.shards != 0) std::snprintf(shards_col, sizeof shards_col, "%u", r.shards);
    if (r.skipped) {
      std::printf("%-16s %8s %10zu %16s (%s)\n", r.repr.c_str(), shards_col,
                  r.streams, "skipped", r.skip_reason);
    } else if (r.num_cores != 0) {
      std::printf("%-16s %8s %10zu %16.0f %12.0f %12.0f %8u %14.0f\n",
                  r.repr.c_str(), shards_col, r.streams, r.decisions_per_sec,
                  r.p50_ns, r.p99_ns, r.num_cores, r.sim_decisions_per_s);
    } else {
      std::printf("%-16s %8s %10zu %16.0f %12.0f %12.0f %8s %14s\n",
                  r.repr.c_str(), shards_col, r.streams, r.decisions_per_sec,
                  r.p50_ns, r.p99_ns, "-", "-");
    }
  }

  // Classification family: flows x wildcard-rule-count grid. Flow counts
  // reuse the scheduler family's sizes; the rule axis comes from --rules.
  struct ClassCell {
    std::string label;
    std::size_t wildcards;
    std::size_t flows;
  };
  std::vector<ClassCell> class_cells;
  for (const auto& [label, wildcards] : rules_list) {
    for (const auto n : sizes) class_cells.push_back({label, wildcards, n});
  }
  std::vector<ClassResult> class_results(class_cells.size());
  bench::run_cells(class_cells.size(), jobs, [&](std::size_t i) {
    class_results[i] = run_classification(
        class_cells[i].label, class_cells[i].wildcards, class_cells[i].flows,
        seed, throughput_budget, latency_budget);
  });
  std::printf("%-16s %8s %10s %16s %12s %12s\n", "classify", "rules", "flows",
              "decisions/sec", "p50 ns", "p99 ns");
  for (const auto& c : class_results) {
    std::printf("%-16s %8s %10zu %16.0f %12.0f %12.0f\n", "flow_table",
                c.rules.c_str(), c.flows, c.lookups_per_sec, c.p50_ns,
                c.p99_ns);
  }

  struct PathCell {
    char which;
    std::size_t streams;
    std::uint64_t frames_per_stream;
  };
  const std::vector<std::size_t> dp_sizes =
      smoke ? std::vector<std::size_t>{256}
            : std::vector<std::size_t>{1'000, 10'000};
  const std::uint64_t dp_frames = smoke ? 2 : 4;
  std::vector<PathCell> path_cells;
  for (const char which : {'a', 'b', 'c'}) {
    for (const auto n : dp_sizes) path_cells.push_back({which, n, dp_frames});
  }
  std::vector<PathResult> path_results(path_cells.size());
  bench::run_cells(path_cells.size(), jobs, [&](std::size_t i) {
    path_results[i] = run_datapath(path_cells[i].which, path_cells[i].streams,
                                   path_cells[i].frames_per_stream);
  });
  std::printf("%-16s %10s %12s %12s %14s\n", "datapath", "streams", "frames",
              "delivered", "frames/sec");
  for (const auto& p : path_results) {
    std::printf("%-16s %10zu %12llu %12llu %14.0f\n", p.path, p.streams,
                static_cast<unsigned long long>(p.frames),
                static_cast<unsigned long long>(p.delivered),
                p.frames_per_sec);
  }

  return write_json(results, path_results, class_results, out_path, seed,
                    jobs)
             ? 0
             : 1;
}
