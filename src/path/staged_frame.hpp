// The unified frame datapath's unit of work: one frame descriptor flowing
// through a composed pipeline of stages (src/path/frame_path.hpp).
//
// The paper's three frame-transfer routes (Figure 3) — host disk→FS→host
// scheduler (Path A), NI disk→PCI p2p DMA→scheduler NI (Path B), NI-local
// disk→NI CPU→network (Path C) — all move the same thing: a frame with a
// stream, a size, a type and a disk location. StagedFrame models exactly
// that, plus per-stage timestamps so every pipeline gets a uniform latency
// breakdown for free (the Table 4 decomposition "4.2disk+1.2net+0.015pci"
// generalized to any composition).
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "dwcs/types.hpp"
#include "mpeg/frame.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace nistream::path {

/// Where a frame's bytes came from (stamped by the source / path factory).
enum class Provenance : std::uint8_t {
  kUnknown = 0,
  kHostFile,       // host filesystem (Path A)
  kNiDisk,         // NI-attached SCSI disk (Paths B and C)
  kStripedVolume,  // Tiger-style striped member disks
  kSynthetic,      // generated in memory (cluster load producers)
  kRemote,         // arrived over the interconnect (the §1 network path)
};

[[nodiscard]] inline const char* to_string(Provenance p) {
  switch (p) {
    case Provenance::kUnknown: return "unknown";
    case Provenance::kHostFile: return "host-file";
    case Provenance::kNiDisk: return "ni-disk";
    case Provenance::kStripedVolume: return "striped-volume";
    case Provenance::kSynthetic: return "synthetic";
    case Provenance::kRemote: return "remote";
  }
  return "?";
}

/// Start/end instants of one stage's work on one frame. Stamps are taken
/// synchronously around the stage await, so per-frame stage durations sum
/// exactly to the frame's end-to-end pipeline latency.
struct StageSample {
  sim::Time start;
  sim::Time end;

  [[nodiscard]] sim::Time duration() const { return end - start; }
};

/// One frame in flight through a FramePath. Fixed-size sample storage keeps
/// the descriptor allocation-free (paths are short; 8 stages is far beyond
/// any composition in the repo).
struct StagedFrame {
  static constexpr std::size_t kMaxStages = 8;

  dwcs::StreamId stream = 0;
  std::uint64_t seq = 0;           // sequence number within this path
  std::uint32_t bytes = 0;
  mpeg::FrameType type = mpeg::FrameType::kP;
  std::uint64_t disk_offset = 0;   // where the source stage reads from
  Provenance provenance = Provenance::kUnknown;

  sim::Time created_at;            // pipeline entry (the Table 4 "t0")
  sim::Time completed_at;          // last stage finished
  std::uint32_t enqueue_retries = 0;  // backpressure retries (EnqueueStage)

  std::array<StageSample, kMaxStages> samples{};
  std::size_t stage_count = 0;

  void stamp(std::size_t stage, sim::Time start, sim::Time end) {
    assert(stage < kMaxStages);
    samples[stage] = StageSample{start, end};
    if (stage + 1 > stage_count) stage_count = stage + 1;
  }

  /// Sum of stamped stage durations; equals completed_at - created_at for a
  /// frame that ran a full pipeline (stages are awaited back to back).
  [[nodiscard]] sim::Time staged_total() const {
    sim::Time t = sim::Time::zero();
    for (std::size_t i = 0; i < stage_count; ++i) t += samples[i].duration();
    return t;
  }
};

/// Aggregate outcome of pumping frames through one path: the per-stage
/// latency breakdown that replaces the ad-hoc RunningStat locals the
/// experiments used to keep, plus the producer-facing counters the apps
/// layer has always reported (apps::ProducerStats is an alias of this).
struct PathStats {
  std::uint64_t frames_produced = 0;
  std::uint64_t retries = 0;       // total enqueue-backpressure retries
  bool finished = false;           // the source ran dry
  sim::Time finished_at;

  struct StageStat {
    std::string name;
    sim::RunningStat ms;
  };
  std::vector<StageStat> stages;   // parallel to the path's stage list
  sim::RunningStat total_ms;       // pipeline entry -> last stage end

  /// Mean latency of the named stage in ms (0 when the stage is absent —
  /// convenient for uniform result tables).
  [[nodiscard]] double stage_mean_ms(const std::string& name) const {
    for (const auto& s : stages) {
      if (s.name == name) return s.ms.mean();
    }
    return 0.0;
  }

  [[nodiscard]] const sim::RunningStat* stage(const std::string& name) const {
    for (const auto& s : stages) {
      if (s.name == name) return &s.ms;
    }
    return nullptr;
  }
};

}  // namespace nistream::path
