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
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cli.hpp"
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

const char* engine_of(dwcs::PolicyKind p) {
  switch (p) {
    case dwcs::PolicyKind::kDwcs: return "pifo-dwcs";
    case dwcs::PolicyKind::kEdf: return "pifo-edf";
    case dwcs::PolicyKind::kStaticPriority: return "pifo-sp";
    case dwcs::PolicyKind::kWfq: return "pifo-wfq";
    case dwcs::PolicyKind::kTenantDwcs: return "pifo-tenant-dwcs";
  }
  return "?";
}

struct StreamCell {
  std::uint64_t violating_windows = 0;
  std::uint64_t window_positions = 0;
  double violation_rate = 0;
  std::uint64_t on_time = 0;
  std::uint64_t dropped = 0;   // scheduler-internal late drops
  std::uint64_t rejected = 0;  // enqueue refused, ring full
};

struct Cell {
  dwcs::PolicyKind policy{};
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

Cell run_cell(dwcs::PolicyKind policy, unsigned load_pct, std::uint64_t seed) {
  Cell c;
  c.policy = policy;
  c.load_pct = load_pct;
  c.service_share_pct = kRequiredBp / load_pct;  // 83 at 90%, 68 at 110%

  auto sched = make_sched(dwcs::ReprKind::kPifo, policy);
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

bool write_json(const std::vector<Cell>& cells, const std::string& path,
                std::uint64_t seed, unsigned jobs) {
  std::ofstream out{path};
  if (!out) {
    std::printf("could not write %s\n", path.c_str());
    return false;
  }
  out << "{\n  \"bench\": \"ablate_policy\",\n";
  bench::write_stamp(out, jobs);
  out << "  \"seed\": " << seed << ",\n"
      << "  \"workload\": {\"streams\": 2, \"period_ms\": " << kSlotMs
      << ", \"horizon_ms\": " << kHorizonMs
      << ", \"loose_tolerance\": \"7/8\", \"tight_tolerance\": \"3/8\", "
         "\"required_ontime_per_slot_bp\": "
      << kRequiredBp << "},\n  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& c = cells[i];
    const auto stream_json = [&](const char* key, const StreamCell& s) {
      char buf[320];
      std::snprintf(buf, sizeof buf,
                    "\"%s\": {\"violating_windows\": %llu, "
                    "\"window_positions\": %llu, \"violation_rate\": %.4f, "
                    "\"on_time\": %llu, \"dropped\": %llu, "
                    "\"rejected\": %llu}",
                    key,
                    static_cast<unsigned long long>(s.violating_windows),
                    static_cast<unsigned long long>(s.window_positions),
                    s.violation_rate,
                    static_cast<unsigned long long>(s.on_time),
                    static_cast<unsigned long long>(s.dropped),
                    static_cast<unsigned long long>(s.rejected));
      return std::string{buf};
    };
    out << "    {\"policy\": \"" << dwcs::to_string(c.policy)
        << "\", \"engine\": \"" << engine_of(c.policy)
        << "\", \"load_pct\": " << c.load_pct
        << ", \"service_share_pct\": " << c.service_share_pct << ",\n     ";
    if (c.checked_identity) {
      out << "\"dual_heap_identical\": "
          << (c.dual_heap_identical ? "true" : "false") << ", ";
    }
    char agg[64];
    std::snprintf(agg, sizeof agg, "%.4f", c.aggregate_rate);
    out << stream_json("tight", c.tight) << ",\n     "
        << stream_json("loose", c.loose) << ",\n     "
        << "\"aggregate_violation_rate\": " << agg << "}"
        << (i + 1 < cells.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed = bench::flag_u64(argc, argv, "seed", 42);
  const unsigned jobs = bench::flag_jobs(argc, argv);
  const std::string out = bench::out_path(argc, argv, "BENCH_policy.json");

  const std::vector<dwcs::PolicyKind> policies{
      dwcs::PolicyKind::kDwcs, dwcs::PolicyKind::kEdf,
      dwcs::PolicyKind::kStaticPriority, dwcs::PolicyKind::kWfq};
  const std::vector<unsigned> loads{90, 110};

  std::vector<Cell> cells(policies.size() * loads.size());
  bench::run_cells(cells.size(), jobs, [&](std::size_t i) {
    cells[i] = run_cell(policies[i / loads.size()], loads[i % loads.size()],
                        seed);
  });

  bench::header("Ablation: rank policy under load (one PIFO engine)");
  std::printf("  %-16s %6s %12s %12s %11s %11s %10s\n", "policy", "load%",
              "tight-vrate", "loose-vrate", "tight-sent", "loose-sent",
              "identity");
  bool ok = true;
  for (const auto& c : cells) {
    ok = ok && c.dual_heap_identical;
    std::printf("  %-16s %6u %12.4f %12.4f %11llu %11llu %10s\n",
                dwcs::to_string(c.policy), c.load_pct,
                c.tight.violation_rate, c.loose.violation_rate,
                static_cast<unsigned long long>(c.tight.on_time),
                static_cast<unsigned long long>(c.loose.on_time),
                !c.checked_identity        ? "-"
                : c.dual_heap_identical    ? "ok"
                                           : "MISMATCH");
  }
  bench::note("Every cell is the same scheduler core; only the rank function");
  bench::note("differs. DWCS sheds losses by tolerance, so the tight stream's");
  bench::note("windows survive overload that breaks them under EDF/SP.");

  if (!write_json(cells, out, seed, jobs)) return 1;
  if (!ok) {
    std::printf("PIFO-DWCS vs dual-heap DECISION MISMATCH\n");
    return 1;
  }
  return 0;
}
