// Stream producers: the MPEG segmentation processes that feed frames into
// scheduler queues (§4.1), in the three frame-transfer configurations of
// Figure 3 — now thin wrappers that pump a path::FramePath composition
// (src/path/paths.hpp):
//
// * ni_disk_producer  — a wind task on a disk-attached i960 board. Path C
//   when the scheduler lives on the same board (Disk→Segment→Enqueue);
//   Path B when config.cross_bus routes each frame over PCI p2p DMA to a
//   dedicated scheduler-NI (Disk→Segment→Pci→Enqueue).
// * host_file_producer — a host process reading through a host filesystem
//   (UFS or mounted dosFs) into a host-resident scheduler: Path A
//   (Fs→Segment→Enqueue).
//
// Producers respect ring backpressure: a rejected frame is retried after a
// short backoff instead of being lost. Stats update per frame, so a
// producer cut short by a fault still reports truthfully — and because
// ProducerStats is path::PathStats, every producer now carries a per-stage
// latency breakdown too.
#pragma once

#include <cstdint>

#include "dvcm/stream_service.hpp"
#include "hostos/filesystem.hpp"
#include "hostos/host.hpp"
#include "hw/pci.hpp"
#include "hw/scsi_disk.hpp"
#include "mpeg/frame.hpp"
#include "path/paths.hpp"
#include "rtos/wind.hpp"
#include "sim/coro.hpp"

namespace nistream::apps {

/// Per-frame CPU cost of segmenting (start-code scan + header decode).
inline constexpr std::int64_t kSegmentationCyclesPerFrame =
    path::kSegmentationCyclesPerFrame;
/// Backoff before retrying a ring-full enqueue.
inline constexpr sim::Time kEnqueueBackoff = path::kEnqueueBackoff;

/// Producer outcome counters + the per-stage latency breakdown.
using ProducerStats = path::PathStats;

/// Everything about a producer's assignment that isn't a hardware resource:
/// which stream it feeds, where its file starts on the device, and (NI
/// producers only) whether frames cross the PCI bus to a dedicated scheduler
/// card (Path B) or stay on-card (Path C). Producers are unpaced: they push
/// as fast as storage and ring backpressure allow.
struct ProducerConfig {
  dwcs::StreamId stream = 0;
  std::uint64_t disk_offset = 0;       // file base on the disk / filesystem
  hw::PciBus* cross_bus = nullptr;     // non-null: Path B's p2p DMA hop
};

namespace detail {

/// Own the path for the life of the pump: the coroutine frame keeps the
/// FramePath (moved in) and the source closure alive until the file drains.
inline sim::Coro pump_owned(path::FramePath p, path::FrameSource source,
                            path::Pacing pacing, ProducerStats& stats) {
  co_await path::pump(p, std::move(source), pacing, stats);
}

}  // namespace detail

/// Produce every frame of `file` from an NI-attached disk into `service`.
inline sim::Coro ni_disk_producer(sim::Engine& engine, hw::ScsiDisk& disk,
                                  rtos::Task& task, const mpeg::MpegFile& file,
                                  dvcm::StreamService& service,
                                  ProducerStats& stats,
                                  const ProducerConfig& config = {}) {
  auto p = config.cross_bus
               ? path::producer_path_b(engine, disk, task, *config.cross_bus,
                                       service)
               : path::producer_path_c(engine, disk, task, service);
  return detail::pump_owned(
      std::move(p),
      path::mpeg_file_source(file, config.stream, config.disk_offset,
                             path::Provenance::kNiDisk),
      {}, stats);
}

/// Produce every frame of `file` from a host filesystem into a host-resident
/// scheduler service (Path A). Filesystem overheads and segmentation both
/// consume the producer process's CPU, so they contend with everything else
/// on the host. Fs is hostos::UfsFilesystem or hostos::DosFilesystem.
template <typename Fs>
sim::Coro host_file_producer(hostos::HostMachine& host, hostos::Process& proc,
                             Fs& fs, const mpeg::MpegFile& file,
                             dvcm::StreamService& service,
                             ProducerStats& stats,
                             const ProducerConfig& config = {}) {
  return detail::pump_owned(
      path::producer_path_a(host, proc, fs, service),
      path::mpeg_file_source(file, config.stream, config.disk_offset,
                             path::Provenance::kHostFile),
      {}, stats);
}

}  // namespace nistream::apps
