// Declarative compositions of the paper's frame-transfer routes (Figure 3,
// Tables 4-5). Two families:
//
//  * critical-path — the schedulerless Table 4 methodology: one frame in
//    flight, straight from storage onto the wire, latency measured at the
//    client.
//  * producer — the §4.1 segmentation producers that feed a scheduler's
//    StreamService ring, with CPU-charged segmentation and enqueue
//    backpressure.
//
// Each factory returns a FramePath whose stage order IS the paper's path
// definition; drive it with path::pump (producers) or per-frame
// path::FramePath::run_frame (experiments).
#pragma once

#include <string>

#include "dvcm/stream_service.hpp"
#include "hostos/filesystem.hpp"
#include "hostos/host.hpp"
#include "hw/pci.hpp"
#include "hw/scsi_disk.hpp"
#include "net/udp.hpp"
#include "path/frame_path.hpp"
#include "rtos/wind.hpp"

namespace nistream::path {

/// Per-frame CPU cost of segmenting (start-code scan + header decode).
inline constexpr std::int64_t kSegmentationCyclesPerFrame = 900;

// ---------------------------------------------------------------------------
// Critical-path family (Table 4): storage -> [bus] -> wire.
// ---------------------------------------------------------------------------

/// Path A critical path: host filesystem read -> host NIC send. Fs is
/// hostos::UfsFilesystem or hostos::DosFilesystem.
template <typename Fs>
FramePath critical_path_a(sim::Engine& engine, Fs& fs,
                          net::UdpEndpoint& endpoint, int dest_port) {
  FramePath p{engine, "critical-a"};
  p.template stage<FsStage<Fs>>(fs).template stage<UdpSendStage>(
      engine, endpoint, dest_port);
  return p;
}

/// Path B critical path: NI disk read -> PCI p2p DMA to the scheduler NI ->
/// NI send (the "4.2disk + 0.015pci + 1.2net" decomposition).
inline FramePath critical_path_b(sim::Engine& engine, hw::ScsiDisk& disk,
                                 hw::PciBus& bus, net::UdpEndpoint& endpoint,
                                 int dest_port) {
  FramePath p{engine, "critical-b"};
  p.stage<DiskStage<hw::ScsiDisk>>(disk)
      .stage<PciDmaStage>(bus)
      .stage<UdpSendStage>(engine, endpoint, dest_port);
  return p;
}

/// Path C critical path: NI disk read -> same-card NI send (no bus at all).
inline FramePath critical_path_c(sim::Engine& engine, hw::ScsiDisk& disk,
                                 net::UdpEndpoint& endpoint, int dest_port) {
  FramePath p{engine, "critical-c"};
  p.stage<DiskStage<hw::ScsiDisk>>(disk).stage<UdpSendStage>(engine, endpoint,
                                                             dest_port);
  return p;
}

// ---------------------------------------------------------------------------
// Producer family (§4.1): storage -> segmentation CPU -> [bus] -> ring.
// ---------------------------------------------------------------------------

/// Path A producer: host filesystem -> host process segmentation -> host
/// scheduler ring. Filesystem overheads and segmentation both charge the
/// producer process's CPU, so they contend with everything else on the host.
template <typename Fs>
FramePath producer_path_a(hostos::HostMachine& host, hostos::Process& proc,
                          Fs& fs, dvcm::StreamService& service) {
  FramePath p{host.engine(), "producer-a"};
  p.template stage<FsStage<Fs>>(fs, &host.scheduler(), &proc.thread())
      .template stage<SegmentStage<hostos::Process>>(
          proc, kSegmentationCyclesPerFrame)
      .template stage<EnqueueStage>(host.engine(), service);
  return p;
}

/// Path B producer: NI disk -> wind-task segmentation -> PCI p2p DMA ->
/// scheduler-NI ring.
inline FramePath producer_path_b(sim::Engine& engine, hw::ScsiDisk& disk,
                                 rtos::Task& task, hw::PciBus& bus,
                                 dvcm::StreamService& service) {
  FramePath p{engine, "producer-b"};
  p.stage<DiskStage<hw::ScsiDisk>>(disk)
      .stage<SegmentStage<rtos::Task>>(task, kSegmentationCyclesPerFrame)
      .stage<PciDmaStage>(bus)
      .stage<EnqueueStage>(engine, service);
  return p;
}

/// Path C producer: NI disk -> wind-task segmentation -> same-card ring.
inline FramePath producer_path_c(sim::Engine& engine, hw::ScsiDisk& disk,
                                 rtos::Task& task,
                                 dvcm::StreamService& service) {
  FramePath p{engine, "producer-c"};
  p.stage<DiskStage<hw::ScsiDisk>>(disk)
      .stage<SegmentStage<rtos::Task>>(task, kSegmentationCyclesPerFrame)
      .stage<EnqueueStage>(engine, service);
  return p;
}

/// Synthetic producer: frames materialize in card memory (no storage stage),
/// get segmented, and enter the ring — the cluster load generators.
template <typename CpuCtx>
FramePath synthetic_producer_path(sim::Engine& engine, CpuCtx& ctx,
                                  dvcm::StreamService& service) {
  FramePath p{engine, "producer-synthetic"};
  p.template stage<SegmentStage<CpuCtx>>(ctx, kSegmentationCyclesPerFrame)
      .template stage<EnqueueStage>(engine, service);
  return p;
}

}  // namespace nistream::path
