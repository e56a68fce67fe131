// Ablation: schedule-representation data structures (§3.1.1).
//
// "This allows different data structures to be used for experimentation
// (FCFS circular buffers, sorted lists, heaps or calendar queues)". We run
// the Table 2 microbenchmark under every representation and also sweep the
// stream count, showing where the O(n) structures cross over the heaps.
#include <cstdio>

#include "apps/experiments.hpp"
#include "bench_util.hpp"
#include "dwcs/repr.hpp"

using namespace nistream;

int main() {
  bench::header("Ablation: schedule representation (Table 2 conditions)");

  const dwcs::ReprKind kinds[] = {
      dwcs::ReprKind::kDualHeap, dwcs::ReprKind::kPifo,
      dwcs::ReprKind::kSortedList, dwcs::ReprKind::kCalendarQueue,
      dwcs::ReprKind::kFcfs};

  std::printf("  %-16s", "streams");
  for (const auto k : kinds) std::printf(" %14s", dwcs::to_string(k));
  std::printf("   (avg frame sched time, us)\n");

  for (const int n_streams : {2, 4, 8, 16, 32, 64}) {
    std::printf("  %-16d", n_streams);
    for (const auto kind : kinds) {
      apps::MicrobenchConfig cfg;
      cfg.arith = dwcs::ArithMode::kFixedPoint;
      cfg.dcache_enabled = true;
      cfg.n_streams = n_streams;
      cfg.n_frames = n_streams * 38;  // constant frames per stream
      // Representation is a scheduler config knob:
      // run_microbench uses cfg.cal defaults; set via a custom config.
      cfg.repr = kind;
      const auto r = apps::run_microbench(cfg);
      std::printf(" %14.2f", r.avg_frame_sched_us);
    }
    std::printf("\n");
  }
  bench::note("Heaps stay near-flat in stream count; the sorted list grows");
  bench::note("linearly; FCFS is cheap but ignores the scheduling attributes.");
  return 0;
}
