// Table 4 — Critical-path benchmarks: 1000-byte frame transfer latency from
// disk to remote client, averaged over 1000 transfers, for the three frame
// paths of Figure 3.
//
// Paper values (§4.2.2, Table 4), milliseconds per frame:
//   Expt I   Disk-Host CPU-I/O Bus-Network:     1 (UFS) / 8 (VxWorks dosFs)
//   Expt II  NI Disk-NI CPU-Network:            5.4
//   Expt III Disk-I/O Bus-NI CPU-Network:       5.415  (4.2disk+1.2net+0.015pci)
#include "apps/experiments.hpp"
#include "bench_util.hpp"
#include "cli.hpp"

using namespace nistream;

int main(int argc, char** argv) {
  const bool show_stages = bench::flag_present(argc, argv, "stages");
  bench::reject_unknown_flags(argc, argv);
  bench::header("Table 4: critical-path frame-transfer benchmarks");
  const auto r = apps::run_critical_path(/*n_transfers=*/1000);

  bench::row("Expt I  (Path A, UFS)", 1.0, r.expt1_ufs_ms, "ms");
  bench::row("Expt I  (Path A, VxWorks dosFs)", 8.0, r.expt1_dosfs_ms, "ms");
  bench::row("Expt II (Path C, NI disk->NI->net)", 5.4, r.expt2_ms, "ms");
  bench::row("Expt III(Path B, disk->PCI->NI->net)", 5.415, r.expt3_ms, "ms");

  std::printf(" Expt III decomposition:\n");
  bench::row("disk component", 4.2, r.expt3_disk_ms, "ms");
  bench::row("net component", 1.2, r.expt3_net_ms, "ms");
  bench::row("pci component", 0.015, r.expt3_pci_ms, "ms");

  // Per-stage means stamped by the FramePath each experiment ran on — the
  // same decomposition, uniform across every path. Opt-in so the default
  // output stays byte-stable across refactors.
  if (show_stages) {
    std::printf(" Stage breakdown (server-side, ms/frame):\n");
    const auto breakdown = [](const char* label,
                              const std::vector<apps::StageLatency>& stages) {
      std::printf("  %-24s", label);
      for (const auto& s : stages) {
        std::printf("  %s=%.3f", s.stage.c_str(), s.mean_ms);
      }
      std::printf("\n");
    };
    breakdown("Path A (UFS)", r.expt1_ufs_stages);
    breakdown("Path A (dosFs)", r.expt1_dosfs_stages);
    breakdown("Path C", r.expt2_stages);
    breakdown("Path B", r.expt3_stages);
  }

  std::printf(" Shape checks:\n");
  bench::note(r.expt1_ufs_ms < r.expt2_ms
                  ? "ok: cached UFS host path beats NI paths on latency"
                  : "MISMATCH: UFS path should be fastest");
  bench::note(r.expt1_dosfs_ms > r.expt2_ms
                  ? "ok: uncached dosFs host path is the slowest"
                  : "MISMATCH: dosFs path should be slowest");
  bench::note(r.expt3_ms - r.expt2_ms < 0.1
                  ? "ok: Path B adds only ~15 us of PCI to Path C"
                  : "MISMATCH: Path B should cost ~0.015 ms over Path C");
  return 0;
}
