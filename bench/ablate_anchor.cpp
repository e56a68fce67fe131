// Ablation: deadline anchoring — fixed grid vs completion-anchored.
//
// The paper defines the deadline as "the maximum allowable time between
// servicing consecutive packets". Two readings exist:
//  * grid:       D(k+1) = D(k) + T — long-run rate preserved exactly, but a
//                service stall makes every queued successor late at once
//                (a drop cascade on lossy streams);
//  * completion: D(k+1) = max(D(k), service time) + T — one late service
//                shifts the grid; successors get a fresh period.
// We inject a single scheduler stall into a paced stream and measure the
// damage under both anchorings.
//
// Reproducible from the command line:
//   `ablate_anchor [out.json] [--seed=u64] [--out=path]`.
// The scenario is fully deterministic (no randomness); --seed is accepted
// for CLI uniformity and recorded in the JSON for provenance.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cli.hpp"
#include "dwcs/scheduler.hpp"
#include "runner.hpp"

using namespace nistream;
using sim::Time;

namespace {

struct Outcome {
  std::uint64_t on_time = 0;
  std::uint64_t dropped = 0;
  std::uint64_t violations = 0;
};

Outcome run(bool completion_anchor, int stall_ms) {
  dwcs::DwcsScheduler::Config cfg;
  cfg.deadline_from_completion = completion_anchor;
  cfg.ring_capacity = 600;
  dwcs::DwcsScheduler s{cfg};
  const auto id = s.create_stream(
      {.tolerance = {1, 8}, .period = Time::ms(10), .lossy = true},
      Time::zero());
  // A standing backlog (the pre-roll burst of the figure experiments)...
  for (std::uint64_t f = 0; f < 500; ++f) {
    s.enqueue(id,
              {.frame_id = f, .bytes = 1000, .type = mpeg::FrameType::kP,
               .enqueued_at = Time::zero()},
              Time::zero());
  }
  // ...served at its pace, with one `stall_ms` gap in the middle (the
  // scheduler was starved — what happens under Figure 7's load bursts).
  int t = 0;
  for (int step = 0; step < 500 && s.backlog(id) > 0; ++step) {
    t += (step == 250) ? stall_ms : 10;
    (void)s.schedule_next(Time::ms(t));
  }
  const auto& st = s.stats(id);
  return Outcome{st.serviced_on_time, st.dropped, st.violations};
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out = bench::out_path(argc, argv, "BENCH_anchor.json");
  const std::uint64_t seed = bench::flag_u64(argc, argv, "seed", 0);
  bench::reject_unknown_flags(argc, argv);

  bench::header("Ablation: deadline anchoring after a scheduler stall");
  std::printf("  %-12s %-14s %10s %10s %12s\n", "anchoring", "stall (ms)",
              "on-time", "dropped", "violations");
  struct Row {
    bool anchor;
    int stall;
    Outcome o;
  };
  std::vector<Row> rows;
  for (const int stall : {50, 200, 500}) {
    for (const bool anchor : {false, true}) {
      const Outcome o = run(anchor, stall);
      std::printf("  %-12s %-14d %10llu %10llu %12llu\n",
                  anchor ? "completion" : "grid", stall,
                  static_cast<unsigned long long>(o.on_time),
                  static_cast<unsigned long long>(o.dropped),
                  static_cast<unsigned long long>(o.violations));
      rows.push_back({anchor, stall, o});
    }
  }
  bench::note("Grid anchoring charges the whole stall against the stream");
  bench::note("(drop cascade + violations); completion anchoring forgives the");
  bench::note("stall and only the frames due during it are lost.");

  std::ofstream json{out};
  if (json) {
    const auto cell = [&](std::size_t i, bench::Json& c) {
      const auto& r = rows[i];
      c.s("anchoring", r.anchor ? "completion" : "grid")
          .u("stall_ms", static_cast<std::uint64_t>(r.stall))
          .u("on_time", r.o.on_time).u("dropped", r.o.dropped)
          .u("violations", r.o.violations);
    };
    bench::Json{json, "{\n  ", ",\n  "}
        .u("seed", seed).list("cells", rows.size(), 4, 2, cell)
        .close("\n}\n");
    std::printf("  wrote %s\n", out.c_str());
  }
  return 0;
}
