// Experiment drivers: one function per table/figure of the paper.
//
// Every bench binary in bench/ is a thin printer around these functions, and
// the integration tests assert the *shape* results the paper reports (who
// wins, by what factor, where the crossovers are). See DESIGN.md §4 for the
// experiment index and EXPERIMENTS.md for paper-vs-measured numbers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dwcs/cost.hpp"
#include "dwcs/repr.hpp"
#include "hw/calibration.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace nistream::apps {

// ---------------------------------------------------------------------------
// Tables 1-3: embedded scheduler microbenchmarks.
// ---------------------------------------------------------------------------

struct MicrobenchConfig {
  dwcs::ArithMode arith = dwcs::ArithMode::kFixedPoint;
  bool dcache_enabled = false;
  dwcs::ReprKind repr = dwcs::ReprKind::kDualHeap;
  dwcs::DescriptorResidency residency =
      dwcs::DescriptorResidency::kPinnedMemory;
  /// Paper workload: ~151 frames pre-loaded into the circular buffers.
  int n_frames = 151;
  int n_streams = 4;
  hw::CpuParams cpu = hw::kI960Rd;
  /// Fixed per-decision control-flow cycles; <0 uses the DWCS default
  /// (embedded build). Host builds carry a heavier fixed path (user/kernel
  /// crossings, timer reads) — see the headline_overhead bench.
  std::int64_t decision_overhead_cycles = -1;
  hw::Calibration cal{};
};

/// One row-set of Table 1/2/3.
struct MicrobenchResult {
  double total_sched_us = 0;
  double avg_frame_sched_us = 0;
  double total_wo_sched_us = 0;
  double avg_frame_wo_sched_us = 0;

  [[nodiscard]] double overhead_us() const {
    return avg_frame_sched_us - avg_frame_wo_sched_us;
  }
};

[[nodiscard]] MicrobenchResult run_microbench(const MicrobenchConfig& config);

// ---------------------------------------------------------------------------
// Table 4: critical-path frame-transfer latency.
// ---------------------------------------------------------------------------

/// Mean server-side latency of one pipeline stage, as stamped by the
/// path::FramePath the experiment ran on.
struct StageLatency {
  std::string stage;
  double mean_ms = 0;
};

struct CriticalPathResult {
  double expt1_ufs_ms = 0;     // Path A via UFS
  double expt1_dosfs_ms = 0;   // Path A via mounted VxWorks dosFs
  double expt2_ms = 0;         // Path C: NI disk -> NI CPU -> network
  double expt3_ms = 0;         // Path B: disk -> PCI -> NI CPU -> network
  double expt3_disk_ms = 0;    // decomposition of expt3 ("4.2disk")
  double expt3_net_ms = 0;     // ("1.2net")
  double expt3_pci_ms = 0;     // ("0.015pci")

  /// Uniform per-stage breakdowns (the Expt III decomposition generalized
  /// to every path), in stage order: one entry per FramePath stage.
  std::vector<StageLatency> expt1_ufs_stages;
  std::vector<StageLatency> expt1_dosfs_stages;
  std::vector<StageLatency> expt2_stages;
  std::vector<StageLatency> expt3_stages;
};

[[nodiscard]] CriticalPathResult run_critical_path(int n_transfers = 1000,
                                                   const hw::Calibration& cal = {});

// ---------------------------------------------------------------------------
// Table 5: PCI card-to-card transfer benchmarks.
// ---------------------------------------------------------------------------

struct PciBenchResult {
  double mpeg_file_dma_us = 0;    // 773665-byte transfer
  double mpeg_file_dma_mbps = 0;  // MB/s
  double pio_word_read_us = 0;
  double pio_word_write_us = 0;
};

[[nodiscard]] PciBenchResult run_pci_bench(const hw::Calibration& cal = {});

// ---------------------------------------------------------------------------
// Figures 6-10: server-load experiments.
// ---------------------------------------------------------------------------

/// Period over which a host scheduler reservation's budget refills.
inline constexpr sim::Time kReservationPeriod = sim::Time::ms(20);

struct LoadExperimentConfig {
  /// Target average web-load utilization (0 = no load, 0.45, 0.60).
  double target_utilization = 0.0;
  sim::Time horizon = sim::Time::sec(100);
  /// Frames per stream: 100 s of 30 fps video.
  int frames_per_stream = 3000;
  /// Per-stream queue capacity. Producers fill it and stay backpressured,
  /// so the no-load queuing delay plateaus at capacity/30 fps = ~10 s —
  /// Figure 8's no-load curve; under load the slower drain stretches it.
  std::size_t ring_capacity = 300;
  std::uint64_t seed = 5;
  /// Host-only extension (paper §5, Jones et al.): give the DWCS process a
  /// CPU reservation of this fraction of one CPU per kReservationPeriod
  /// (0 = none). With a sufficient reservation the host scheduler rides out
  /// the web load.
  double scheduler_reservation = 0.0;
  hw::Calibration cal{};
};

struct StreamOutcome {
  sim::TimeSeries bandwidth_bps;  // client-side delivered bandwidth
  std::vector<std::pair<std::uint64_t, double>> qdelay_ms;  // (frame#, delay)
  std::uint64_t frames_delivered = 0;
  double settle_bandwidth_bps = 0;  // mean over the last third of the run
  double max_qdelay_ms = 0;

  /// Queuing delay of the n-th dispatched frame (Figure 8/10 reads at
  /// frame 300); 0 when fewer frames were sent.
  [[nodiscard]] double qdelay_at_frame(std::uint64_t n) const {
    for (const auto& [frame, d] : qdelay_ms) {
      if (frame >= n) return d;
    }
    return qdelay_ms.empty() ? 0.0 : qdelay_ms.back().second;
  }
};

struct LoadExperimentResult {
  sim::TimeSeries cpu_utilization;  // Figure 6 perfmeter series (percent)
  double avg_utilization = 0;
  double peak_utilization = 0;
  StreamOutcome s1, s2;
};

/// Host-based scheduler under web load (Figures 6, 7, 8). Two CPUs online.
[[nodiscard]] LoadExperimentResult run_host_load_experiment(
    const LoadExperimentConfig& config);

/// NI-based scheduler with the same web load applied to the host
/// (Figures 9, 10). One host CPU online; DWCS runs on the i960 board.
[[nodiscard]] LoadExperimentResult run_ni_load_experiment(
    const LoadExperimentConfig& config);

}  // namespace nistream::apps
