// Ablation: Tiger-style disk striping (paper §5).
//
// "DWCS could also take advantage of the stripe-based disk and machine
// scheduling methods advocated by the Tiger video server". The producer side
// of an NI is disk-bound when many streams pull from one spindle; striping
// the media volume across the board's SCSI ports multiplies the sustainable
// producer rate. We measure frames/second off the volume for 1..4 member
// disks under the media access pattern (64 KB stripe, 8 KB frames). Each
// reader is a path::FramePath over the striped volume — the same DiskStage
// the producer paths use.
//
// Reproducible from the command line:
//   `ablate_striping [out.json] [--seed=u64] [--out=path]`.
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cli.hpp"
#include "hw/striped_volume.hpp"
#include "path/frame_path.hpp"
#include "runner.hpp"

using namespace nistream;
using sim::Time;

namespace {

constexpr int kReaders = 8;
constexpr int kFramesEach = 60;
constexpr std::uint32_t kFrameBytes = 8192;

double frames_per_second(int width, std::uint64_t seed) {
  sim::Engine eng;
  std::vector<std::unique_ptr<hw::ScsiDisk>> owned;
  std::vector<hw::ScsiDisk*> disks;
  for (int i = 0; i < width; ++i) {
    owned.push_back(std::make_unique<hw::ScsiDisk>(
        eng, hw::kScsiDisk, seed + static_cast<std::uint64_t>(i)));
    disks.push_back(owned.back().get());
  }
  hw::StripedVolume vol{eng, disks};
  // Interleaved multi-stream access: 8 concurrent readers sweeping separate
  // file regions (the worst case for a single spindle: every read seeks).
  std::vector<std::unique_ptr<path::FramePath>> paths;
  std::vector<std::unique_ptr<path::PathStats>> stats;
  for (int r = 0; r < kReaders; ++r) {
    paths.push_back(std::make_unique<path::FramePath>(eng, "striped-read"));
    paths.back()->stage<path::DiskStage<hw::StripedVolume>>(vol);
    stats.push_back(std::make_unique<path::PathStats>());
    path::pump(*paths.back(),
               path::fixed_frame_source(
                   kFramesEach, kFrameBytes,
                   [r](std::uint64_t k) {
                     return static_cast<std::uint64_t>(r) * 400'000'000 +
                            k * 5'000'000;
                   },
                   /*stream=*/static_cast<dwcs::StreamId>(r),
                   path::Provenance::kStripedVolume),
               {}, *stats.back())
        .detach();
  }
  const Time t = eng.run();
  return kReaders * kFramesEach / t.to_sec();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out = bench::out_path(argc, argv, "BENCH_striping.json");
  const std::uint64_t seed = bench::flag_u64(argc, argv, "seed", 300);
  bench::reject_unknown_flags(argc, argv);

  bench::header("Ablation: striped media volume (producer-side disk bound)");
  std::printf("  %-8s %16s %10s\n", "disks", "frames/sec", "speedup");
  std::vector<std::pair<int, double>> rows;
  double base = 0;
  for (const int width : {1, 2, 3, 4}) {
    const double fps = frames_per_second(width, seed);
    if (width == 1) base = fps;
    std::printf("  %-8d %16.1f %9.2fx\n", width, fps, fps / base);
    rows.emplace_back(width, fps);
  }
  bench::note("Stripe width multiplies the sustainable producer frame rate;");
  bench::note("the i960 RD's two SCSI ports buy ~2x before the NI CPU or the");
  bench::note("100 Mbps link becomes the binding constraint.");

  std::ofstream json{out};
  if (json) {
    const auto width = [&](std::size_t i, bench::Json& w) {
      w.u("disks", static_cast<std::uint64_t>(rows[i].first))
          .g("frames_per_sec", rows[i].second)
          .g("speedup", rows[i].second / base);
    };
    bench::Json{json, "{\n  ", ",\n  "}
        .u("seed", seed).u("readers", kReaders).u("frames_each", kFramesEach)
        .u("frame_bytes", kFrameBytes)
        .list("widths", rows.size(), 4, 2, width)
        .close("\n}\n");
    std::printf("  wrote %s\n", out.c_str());
  }
  return 0;
}
