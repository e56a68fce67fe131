// RTP-tailed producer paths (see path/paths.hpp): the synthetic path the
// front door pumps, and Path C.
//
// An RTSP session's data plane is an ordinary producer path with an RTP
// tail spliced in between segmentation and the scheduler ring:
//
//   [storage] -> segment -> rtp -> rtcp -> enqueue
//
// The RTP packetizer charges the producer CPU and grows the frame by the
// header; the RTCP stage piggybacks periodic sender reports onto the frame
// clock over a side UDP port. The scheduler then paces RTP-framed packets
// exactly as it paces raw ones — DWCS neither knows nor cares what framing
// rides inside a dispatch, which is the point: session control composes
// onto the existing datapath instead of forking it.
#pragma once

#include "dvcm/stream_service.hpp"
#include "hw/scsi_disk.hpp"
#include "net/udp.hpp"
#include "path/frame_path.hpp"
#include "path/paths.hpp"
#include "path/rtp_stages.hpp"
#include "rtos/wind.hpp"

namespace nistream::session {

/// Knobs of the RTP tail, shared by every variant.
struct RtpTailParams {
  std::int64_t rtp_cycles_per_packet = 700;  // header build on the NI CPU
  std::uint32_t ticks_per_frame = path::kRtpTicksPerFrame;
  sim::Time rtcp_interval = sim::Time::ms(500);
  sim::Time backoff = path::kEnqueueBackoff;
};

/// Synthetic session path (no storage stage): segment -> rtp -> rtcp ->
/// enqueue, all on one NI task. This is what the front door pumps — churn
/// workloads stress session lifecycle, not disk mechanics.
inline path::FramePath session_path_synthetic(sim::Engine& engine,
                                              rtos::Task& task,
                                              dvcm::StreamService& service,
                                              path::RtpState& rtp,
                                              net::UdpEndpoint& rtcp_out,
                                              int rtcp_port,
                                              const RtpTailParams& params) {
  path::FramePath p{engine, "session-synthetic"};
  p.stage<path::SegmentStage<rtos::Task>>(task,
                                          path::kSegmentationCyclesPerFrame)
      .stage<path::RtpPacketizeStage<rtos::Task>>(
          task, rtp, params.rtp_cycles_per_packet, params.ticks_per_frame)
      .stage<path::RtcpReportStage>(engine, rtcp_out, rtcp_port, rtp,
                                    params.rtcp_interval)
      .stage<path::EnqueueStage>(engine, service, params.backoff);
  return p;
}

/// Path C with an RTP tail: NI disk -> same-card segmentation +
/// packetization -> ring.
inline path::FramePath session_path_c(sim::Engine& engine, hw::ScsiDisk& disk,
                                      rtos::Task& task,
                                      dvcm::StreamService& service,
                                      path::RtpState& rtp,
                                      net::UdpEndpoint& rtcp_out,
                                      int rtcp_port,
                                      const RtpTailParams& params) {
  path::FramePath p{engine, "session-c"};
  p.stage<path::DiskStage<hw::ScsiDisk>>(disk)
      .stage<path::SegmentStage<rtos::Task>>(
          task, path::kSegmentationCyclesPerFrame)
      .stage<path::RtpPacketizeStage<rtos::Task>>(
          task, rtp, params.rtp_cycles_per_packet, params.ticks_per_frame)
      .stage<path::RtcpReportStage>(engine, rtcp_out, rtcp_port, rtp,
                                    params.rtcp_interval)
      .stage<path::EnqueueStage>(engine, service, params.backoff);
  return p;
}

}  // namespace nistream::session
