// Tests for the RTP/RTCP datapath stages and the PumpGate lifecycle
// control: header-space advancement, report cadence, RTP-tailed path
// composition, and pause/resume/stop at frame boundaries.
#include "path/rtp_stages.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hw/calibration.hpp"
#include "net/udp.hpp"
#include "path/paths.hpp"
#include "rtos/wind.hpp"
#include "session/front_door.hpp"

namespace nistream::path {
namespace {

using sim::Time;

struct RtpRig {
  sim::Engine eng;
  hw::EthernetSwitch ether{eng};
  hw::CpuModel cpu{hw::kI960Rd};
  rtos::WindKernel kernel{eng, cpu};
  rtos::Task& task = kernel.spawn("rtp-test", 100);
  std::vector<RtcpSenderReport> reports;
  int sink = ether.add_port([](const hw::EthFrame&) {});
  net::UdpEndpoint rtcp_out{eng, ether, net::kNiStackCost,
                            [](const net::Packet&, Time) {}};
  net::UdpEndpoint rtcp_sink{eng, ether, net::kHostStackCost,
                             [this](const net::Packet& p, Time) {
                               if (const auto* r =
                                       static_cast<const RtcpSenderReport*>(
                                           p.body.get())) {
                                 reports.push_back(*r);
                               }
                             }};
};

TEST(RtpPacketizeStage, AdvancesSequenceTimestampAndBytes) {
  RtpRig rig;
  RtpState state;
  state.ssrc = 0xabcd;
  FramePath p{rig.eng, "rtp-only"};
  p.stage<RtpPacketizeStage<rtos::Task>>(rig.task, state, 700);
  PathStats stats;
  auto run = [&]() -> sim::Coro {
    for (int i = 0; i < 3; ++i) {
      StagedFrame f;
      f.seq = static_cast<std::uint64_t>(i);
      f.bytes = 1000;
      co_await p.run_frame(f, nullptr);
      EXPECT_EQ(f.bytes, 1000u + kRtpHeaderBytes);
    }
  };
  run().detach();
  rig.eng.run();
  EXPECT_EQ(state.packets, 3u);
  EXPECT_EQ(state.octets, 3000u);  // payload octets, headers excluded
  EXPECT_EQ(state.seq, 3u);
  EXPECT_EQ(state.timestamp, 3u * kRtpTicksPerFrame);
}

TEST(RtpPacketizeStage, SequenceWrapsAt16Bits) {
  RtpRig rig;
  RtpState state;
  state.seq = 0xffff;
  FramePath p{rig.eng, "rtp-wrap"};
  p.stage<RtpPacketizeStage<rtos::Task>>(rig.task, state, 700);
  auto run = [&]() -> sim::Coro {
    StagedFrame f;
    f.bytes = 100;
    co_await p.run_frame(f, nullptr);
  };
  run().detach();
  rig.eng.run();
  EXPECT_EQ(state.seq, 0u);  // 16-bit wire field semantics
}

TEST(RtcpReportStage, EmitsAtConfiguredInterval) {
  RtpRig rig;
  RtpState state;
  state.ssrc = 7;
  FramePath p{rig.eng, "rtcp-only"};
  p.stage<RtpPacketizeStage<rtos::Task>>(rig.task, state, 700)
      .stage<RtcpReportStage>(rig.eng, rig.rtcp_out, rig.rtcp_sink.port(),
                              state, Time::ms(100));
  PathStats stats;
  // 30 frames at 10ms = 300ms of media; a 100ms interval means the first
  // report (frame 0) plus roughly one per 10 frames.
  auto source = fixed_frame_source(30, 1000, {});
  pump(p, source, Pacing{.burst_frames = 1, .gap = Time::ms(10)}, stats)
      .detach();
  rig.eng.run();
  ASSERT_GE(rig.reports.size(), 3u);
  ASSERT_LE(rig.reports.size(), 4u);
  EXPECT_EQ(state.reports, rig.reports.size());
  // First report fires on the first frame through the stage.
  EXPECT_EQ(rig.reports[0].packet_count, 1u);
  for (const auto& r : rig.reports) EXPECT_EQ(r.ssrc, 7u);
  // Reports snapshot cumulative counts, monotonically.
  for (std::size_t i = 1; i < rig.reports.size(); ++i) {
    EXPECT_GT(rig.reports[i].packet_count, rig.reports[i - 1].packet_count);
    EXPECT_GE(rig.reports[i].sent_at - rig.reports[i - 1].sent_at,
              Time::ms(100));
  }
}

TEST(SessionPaths, FrontDoorPathHasExpectedStages) {
  RtpRig rig;
  hw::Calibration cal;
  dvcm::StreamService svc{rig.eng, {}, rig.cpu, cal.ni_int, cal.ni_softfp};
  RtpState state;
  FramePath p = session::RtspFrontDoor::session_path(
      rig.eng, rig.task, svc, state, rig.rtcp_out, rig.rtcp_sink.port());
  ASSERT_EQ(p.stage_count(), 4u);
  const char* expected[] = {"segment", "rtp", "rtcp", "enqueue"};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_STREQ(p.stage_at(i).name(), expected[i]) << "stage " << i;
  }
}

TEST(PumpGate, PauseParksAtFrameBoundaryAndResumeContinues) {
  RtpRig rig;
  FramePath p{rig.eng, "gated"};
  p.stage<DelayStage>(rig.eng, Time::ms(1));
  PathStats stats;
  PumpGate gate{rig.eng};
  auto source = fixed_frame_source(1000, 100, {});
  pump(p, source, Pacing{.burst_frames = 1, .gap = Time::ms(10)}, stats, {},
       &gate)
      .detach();
  rig.eng.run_until(Time::ms(105));
  const std::uint64_t at_pause = stats.frames_produced;
  EXPECT_GT(at_pause, 5u);
  gate.pause();
  rig.eng.run_until(Time::ms(300));
  // At most the frame already past the gate completes after pause().
  EXPECT_LE(stats.frames_produced, at_pause + 1);
  EXPECT_FALSE(stats.finished);
  const std::uint64_t during_pause = stats.frames_produced;
  gate.resume();
  rig.eng.run_until(Time::ms(500));
  EXPECT_GT(stats.frames_produced, during_pause + 10);
}

TEST(PumpGate, StopFinishesEarlyWithTruthfulStats) {
  RtpRig rig;
  FramePath p{rig.eng, "stopped"};
  p.stage<DelayStage>(rig.eng, Time::ms(1));
  PathStats stats;
  PumpGate gate{rig.eng};
  auto source = fixed_frame_source(1000, 100, {});
  pump(p, source, Pacing{.burst_frames = 1, .gap = Time::ms(10)}, stats, {},
       &gate)
      .detach();
  rig.eng.run_until(Time::ms(55));
  gate.stop();
  rig.eng.run_until(Time::ms(200));
  EXPECT_TRUE(stats.finished);
  EXPECT_LT(stats.frames_produced, 1000u);
  EXPECT_GT(stats.frames_produced, 0u);
  // finished_at records the stop, not the nominal end of media.
  EXPECT_LE(stats.finished_at, Time::ms(100));
}

TEST(PumpGate, StopWhilePausedUnparksAndExits) {
  RtpRig rig;
  FramePath p{rig.eng, "paused-stop"};
  p.stage<DelayStage>(rig.eng, Time::ms(1));
  PathStats stats;
  PumpGate gate{rig.eng};
  auto source = fixed_frame_source(1000, 100, {});
  pump(p, source, Pacing{.burst_frames = 1, .gap = Time::ms(10)}, stats, {},
       &gate)
      .detach();
  rig.eng.run_until(Time::ms(50));
  gate.pause();
  rig.eng.run_until(Time::ms(100));
  gate.stop();
  rig.eng.run_until(Time::ms(150));
  EXPECT_TRUE(stats.finished);
  EXPECT_TRUE(gate.stopped());
}

}  // namespace
}  // namespace nistream::path
