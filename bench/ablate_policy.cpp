// Ablation: scheduling policy under load, on ONE engine.
//
// Every cell is the same DwcsScheduler core — late processing, rule-(A)/(B)
// window accounting, lossy drops — running the PIFO rank engine
// (ReprKind::kPifo) under a different rank policy: DWCS, EDF, static
// priority, and WFQ (virtual finish times, weight = outstanding on-time
// obligation y-x). Since only the rank function differs between cells, the
// violation-rate deltas are attributable to the policy alone.
//
// Workload: a loose 7/8-tolerance stream (id 0) and a tight 3/8 one (id 1),
// both lossy, sharing a 10 ms period over a 60 s horizon. Satisfying both
// windows needs 1/8 + 5/8 = 0.75 on-time services per slot; the service
// gate admits floor(75/(load/100)) percent of slots, spread evenly
// (Bresenham over the slot index, phase-rotated by `--seed`), so load 90
// leaves headroom and load 110 is infeasible by construction. Even spacing
// matters: a random gate of the same average bunches idle slots, and
// bunched consecutive losses drive every window to its violated x'=0
// regime regardless of policy, hiding the policy effect the bench exists
// to measure. Scored by the sliding-window violation monitor; only DWCS
// sheds losses selectively by tolerance, so only it keeps the tight
// stream's windows intact at 90% while still feeding the loose stream its
// 1/8 reserved share.
//
// The DWCS cells double as an engine cross-check: a dual-heap shadow
// scheduler consumes the identical frame/gate sequence and must dispatch
// and drop identically at every slot ("dual_heap_identical" in the JSON;
// any mismatch fails the run). Output: stdout table + schema-versioned
// JSON (default BENCH_policy.json) with `--seed`, `--out`, `--jobs`.
#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "dwcs/monitor.hpp"
#include "dwcs/scheduler.hpp"
#include "runner.hpp"

using namespace nistream;
using sim::Time;

namespace {

constexpr int kSlotMs = 10;
constexpr int kHorizonMs = 60'000;
// On-time services per slot both windows need: 1/8 (loose) + 5/8 (tight).
constexpr std::uint64_t kRequiredBp = 7'500;  // basis points of one slot

struct StreamCell {
  std::uint64_t violating_windows = 0;
  std::uint64_t window_positions = 0;
  double violation_rate = 0;
  std::uint64_t on_time = 0;
  std::uint64_t dropped = 0;   // scheduler-internal late drops
  std::uint64_t rejected = 0;  // enqueue refused, ring full
};

struct CellSpec {
  dwcs::PolicyKind policy;
  unsigned load_pct;
};

struct Cell {
  dwcs::PolicyKind policy{};
  const char* engine = "";  // the PIFO engine's rank name
  unsigned load_pct = 0;
  std::uint64_t service_share_pct = 0;
  bool checked_identity = false;    // true only for the DWCS cells
  bool dual_heap_identical = true;  // vacuously true when unchecked
  StreamCell loose, tight;
  double aggregate_rate = 0;
};

std::unique_ptr<dwcs::DwcsScheduler> make_sched(dwcs::ReprKind repr,
                                                dwcs::PolicyKind policy) {
  dwcs::DwcsScheduler::Config cfg;
  cfg.repr = repr;
  cfg.policy = policy;
  return std::make_unique<dwcs::DwcsScheduler>(cfg);
}

Cell run_cell(const CellSpec& spec, std::uint64_t seed) {
  const dwcs::PolicyKind policy = spec.policy;
  const unsigned load_pct = spec.load_pct;
  Cell c;
  c.policy = policy;
  c.load_pct = load_pct;
  c.service_share_pct = kRequiredBp / load_pct;  // 83 at 90%, 68 at 110%

  auto sched = make_sched(dwcs::ReprKind::kPifo, policy);
  c.engine = sched->repr().name();
  std::unique_ptr<dwcs::DwcsScheduler> shadow;
  if (policy == dwcs::PolicyKind::kDwcs) {
    shadow = make_sched(dwcs::ReprKind::kDualHeap, policy);
    c.checked_identity = true;
  }

  const dwcs::WindowConstraint loose{7, 8}, tight{3, 8};
  dwcs::WindowViolationMonitor monitor;
  const auto create = [&](dwcs::DwcsScheduler& s) {
    (void)s.create_stream(
        {.tolerance = loose, .period = Time::ms(kSlotMs), .lossy = true},
        Time::zero());
    (void)s.create_stream(
        {.tolerance = tight, .period = Time::ms(kSlotMs), .lossy = true},
        Time::zero());
  };
  create(*sched);
  if (shadow) create(*shadow);
  const dwcs::StreamId l_id = 0, t_id = 1;
  monitor.add_stream(loose);
  monitor.add_stream(tight);

  // The gate depends on (seed, load) only — every policy at a given load
  // sees the identical service-opportunity sequence, and so does the
  // dual-heap shadow.
  const std::uint64_t gate_phase = seed % 100;
  std::uint64_t fid = 0;
  std::array<std::uint64_t, 2> seen_drops{0, 0};
  std::array<std::uint64_t, 2> rejected{0, 0};
  const auto pump = [&] {
    for (const auto id : {l_id, t_id}) {
      const auto d = sched->stats(id).dropped;
      for (std::uint64_t k = seen_drops[id]; k < d; ++k) {
        monitor.record(id, dwcs::WindowViolationMonitor::Outcome::kDropped);
      }
      seen_drops[id] = d;
    }
  };

  for (int t = 0; t < kHorizonMs; t += kSlotMs) {
    const Time now = Time::ms(t);
    for (const auto id : {t_id, l_id}) {
      const dwcs::FrameDescriptor f{.frame_id = fid++, .bytes = 1000,
                                    .type = mpeg::FrameType::kP,
                                    .enqueued_at = now};
      const bool ok = sched->enqueue(id, f, now);
      if (!ok) {
        // A refused frame is a loss of that stream's packet this period.
        ++rejected[id];
        monitor.record(id, dwcs::WindowViolationMonitor::Outcome::kDropped);
      }
      if (shadow) {
        const bool sok = shadow->enqueue(id, f, now);
        c.dual_heap_identical = c.dual_heap_identical && sok == ok;
      }
    }
    const std::uint64_t slot = static_cast<std::uint64_t>(t / kSlotMs) +
                               gate_phase;
    if ((slot + 1) * c.service_share_pct / 100 >
        slot * c.service_share_pct / 100) {
      const auto d = sched->schedule_next(now);
      pump();
      if (d) {
        monitor.record(d->stream,
                       d->late ? dwcs::WindowViolationMonitor::Outcome::kLate
                               : dwcs::WindowViolationMonitor::Outcome::kOnTime);
      }
      if (shadow) {
        const auto ds = shadow->schedule_next(now);
        c.dual_heap_identical =
            c.dual_heap_identical && d.has_value() == ds.has_value() &&
            (!d || d->stream == ds->stream);
      }
    }
    if (shadow) {
      for (const auto id : {l_id, t_id}) {
        c.dual_heap_identical =
            c.dual_heap_identical &&
            shadow->stats(id).dropped == sched->stats(id).dropped;
      }
    }
  }
  pump();

  const auto fill = [&](dwcs::StreamId id, StreamCell& out) {
    out.violating_windows = monitor.violating_windows(id);
    out.window_positions =
        monitor.window_positions(dwcs::WindowViolationMonitor::StreamKey{0, id});
    out.violation_rate = monitor.violation_rate(id);
    out.on_time = sched->stats(id).serviced_on_time;
    out.dropped = sched->stats(id).dropped;
    out.rejected = rejected[id];
  };
  fill(l_id, c.loose);
  fill(t_id, c.tight);
  c.aggregate_rate = monitor.aggregate_violation_rate();
  return c;
}

void write_stream(bench::Json& j, const StreamCell& s) {
  j.u("violating_windows", s.violating_windows)
      .u("window_positions", s.window_positions)
      .f("violation_rate", s.violation_rate, 4).u("on_time", s.on_time)
      .u("dropped", s.dropped).u("rejected", s.rejected);
}

void write_cell(bench::Json& j, const Cell& c, const bench::Verdict&) {
  j.s("policy", dwcs::to_string(c.policy)).s("engine", c.engine)
      .u("load_pct", c.load_pct).u("service_share_pct", c.service_share_pct)
      .wrap(5);
  if (c.checked_identity) j.b("dual_heap_identical", c.dual_heap_identical);
  j.object("tight", [&](bench::Json& o) { write_stream(o, c.tight); });
  j.wrap(5).object("loose", [&](bench::Json& o) { write_stream(o, c.loose); });
  j.wrap(5).f("aggregate_violation_rate", c.aggregate_rate, 4);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Sweep sweep{argc, argv, "ablate_policy", "BENCH_policy.json", 42};
  std::vector<CellSpec> specs;
  for (const auto policy :
       {dwcs::PolicyKind::kDwcs, dwcs::PolicyKind::kEdf,
        dwcs::PolicyKind::kStaticPriority, dwcs::PolicyKind::kWfq}) {
    for (const unsigned load : {90u, 110u}) specs.push_back({policy, load});
  }

  // Every cell sees the master seed: the service gate depends on (seed,
  // load) only, so all policies at one load face the same opportunities.
  return sweep.run(bench::Plan<CellSpec, Cell>{
      .title = "Ablation: rank policy under load (one PIFO engine)",
      .cells = specs,
      .run = run_cell,
      .gates = [](const Cell& c, bench::Verdict& v) {
        if (!c.dual_heap_identical) v.fail("PIFO-DWCS vs dual-heap mismatch");
      },
      .header = [](bench::Json& j) {
        j.object("workload", [](bench::Json& w) {
          w.u("streams", 2).u("period_ms", kSlotMs).u("horizon_ms", kHorizonMs)
              .s("loose_tolerance", "7/8").s("tight_tolerance", "3/8")
              .u("required_ontime_per_slot_bp", kRequiredBp);
        });
      },
      .fields = write_cell,
      .columns = {"policy", "load_pct", "tight.violation_rate",
                  "loose.violation_rate", "tight.on_time", "loose.on_time",
                  "dual_heap_identical"},
      .json_ok = false,
  });
}
