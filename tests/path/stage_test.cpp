// Unit tests for the unified frame datapath: StagedFrame stamping, the
// individual stages' charging behavior, FramePath composition, and the pump
// (pacing, backpressure, incremental stats).
#include "path/paths.hpp"

#include <gtest/gtest.h>

#include "apps/client.hpp"
#include "mpeg/encoder.hpp"

namespace nistream::path {
namespace {

using sim::Time;

TEST(StagedFrame, StampAndStagedTotal) {
  StagedFrame f;
  f.stamp(0, Time::ms(1), Time::ms(3));
  f.stamp(1, Time::ms(3), Time::ms(3));   // zero-cost stage
  f.stamp(2, Time::ms(3), Time::ms(10));
  EXPECT_EQ(f.stage_count, 3u);
  EXPECT_EQ(f.samples[0].duration(), Time::ms(2));
  EXPECT_EQ(f.staged_total(), Time::ms(9));
}

TEST(PathStats, StageLookup) {
  PathStats s;
  s.stages.push_back({"disk", {}});
  s.stages.push_back({"enqueue", {}});
  s.stages[0].ms.add(4.0);
  s.stages[0].ms.add(6.0);
  EXPECT_DOUBLE_EQ(s.stage_mean_ms("disk"), 5.0);
  EXPECT_EQ(s.stage_mean_ms("pci"), 0.0);
  ASSERT_NE(s.stage("disk"), nullptr);
  EXPECT_EQ(s.stage("disk")->count(), 2u);
  EXPECT_EQ(s.stage("absent"), nullptr);
}

TEST(FramePath, RunFrameStampsEveryStage) {
  sim::Engine eng;
  hw::ScsiDisk disk{eng};
  hw::PciBus bus{eng};
  FramePath p{eng, "test"};
  p.stage<DiskStage<hw::ScsiDisk>>(disk).stage<PciDmaStage>(bus);

  StagedFrame f;
  f.bytes = 1000;
  f.disk_offset = 50'000'000;
  PathStats stats;
  p.bind(stats);
  auto run = [&]() -> sim::Coro { co_await p.run_frame(f, &stats); };
  run().detach();
  eng.run();

  ASSERT_EQ(f.stage_count, 2u);
  EXPECT_GT(f.samples[0].duration(), Time::zero());  // disk mechanics
  EXPECT_GT(f.samples[1].duration(), Time::zero());  // DMA
  // Stamps tile the pipeline: no gaps, no overlap.
  EXPECT_EQ(f.samples[0].start, f.created_at);
  EXPECT_EQ(f.samples[0].end, f.samples[1].start);
  EXPECT_EQ(f.samples[1].end, f.completed_at);
  EXPECT_EQ(f.staged_total(), f.completed_at - f.created_at);
  EXPECT_EQ(stats.stages[0].name, "disk");
  EXPECT_EQ(stats.stages[1].name, "pci");
  EXPECT_DOUBLE_EQ(stats.stages[0].ms.mean(),
                   f.samples[0].duration().to_ms());
}

TEST(Stages, SegmentStageChargesTaskCycles) {
  sim::Engine eng;
  hw::CpuModel cpu{hw::kI960Rd};
  rtos::WindKernel kernel{eng, cpu};
  rtos::Task& task = kernel.spawn("tSeg", 100);
  FramePath p{eng, "seg"};
  p.stage<SegmentStage<rtos::Task>>(task, 900);
  StagedFrame f;
  auto run = [&]() -> sim::Coro { co_await p.run_frame(f, nullptr); };
  run().detach();
  eng.run();
  EXPECT_GT(f.samples[0].duration(), Time::zero());
}

TEST(Stages, EnqueueStageRetriesUntilAdmitted) {
  sim::Engine eng;
  hw::CpuModel cpu{hw::kI960Rd};
  hw::Calibration cal;
  dvcm::StreamService::Config cfg;
  cfg.scheduler.ring_capacity = 1;
  dvcm::StreamService svc{eng, cfg, cpu, cal.ni_int, cal.ni_softfp, nullptr};
  const auto id = svc.create_stream(
      {.tolerance = {1, 4}, .period = Time::ms(10), .lossy = true}, 0);
  ASSERT_TRUE(svc.enqueue(id, 100, mpeg::FrameType::kP));  // fill the ring

  FramePath p{eng, "enq"};
  p.stage<EnqueueStage>(eng, svc, Time::ms(5));
  StagedFrame f;
  f.stream = id;
  f.bytes = 100;
  bool done = false;
  auto run = [&]() -> sim::Coro {
    co_await p.run_frame(f, nullptr);
    done = true;
  };
  run().detach();
  // Drain one slot after two failed attempts' worth of backoff.
  auto drain = [&]() -> sim::Coro {
    co_await sim::Delay{eng, Time::ms(7)};
    (void)svc.scheduler().schedule_next(eng.now());
  };
  drain().detach();
  eng.run();
  EXPECT_TRUE(done);
  EXPECT_GE(f.enqueue_retries, 1u);
  EXPECT_EQ(f.samples[0].duration(),
            Time::ms(5) * static_cast<std::int64_t>(f.enqueue_retries));
}

TEST(Stages, UdpSendStampsDispatchOnlyWhenAsked) {
  sim::Engine eng;
  hw::Calibration cal;
  hw::EthernetSwitch ether{eng, cal.ethernet};
  apps::MpegClient client{eng, ether, cal.ethernet.stack_traversal};
  net::UdpEndpoint ep{eng, ether, cal.ethernet.stack_traversal,
                      net::UdpEndpoint::Receiver{}};
  FramePath p{eng, "send"};
  p.stage<UdpSendStage>(eng, ep, client.port());
  PathStats stats;
  pump(p, fixed_frame_source(3, 1000, {}), {}, stats).detach();
  eng.run();
  EXPECT_EQ(stats.frames_produced, 3u);
  EXPECT_TRUE(stats.finished);
  EXPECT_EQ(client.total_frames(), 3u);
}

TEST(Pump, BeforeFramePacingSkipsBurst) {
  sim::Engine eng;
  FramePath p{eng, "empty"};  // no stages: pacing is the only time cost
  PathStats stats;
  pump(p, fixed_frame_source(5, 100, {}),
       Pacing{.burst_frames = 2, .gap = Time::ms(10),
              .where = Pacing::Where::kBeforeFrame},
       stats)
      .detach();
  eng.run();
  // Frames 0,1 immediate; 2,3,4 pay the 10 ms gap each.
  EXPECT_EQ(stats.frames_produced, 5u);
  EXPECT_EQ(stats.finished_at, Time::ms(30));
}

TEST(Pump, AfterFramePacingPacesEveryFrame) {
  sim::Engine eng;
  FramePath p{eng, "empty"};
  PathStats stats;
  pump(p, fixed_frame_source(4, 100, {}),
       Pacing{.burst_frames = 0, .gap = Time::ms(3),
              .where = Pacing::Where::kAfterFrame},
       stats)
      .detach();
  eng.run();
  // The Table 4 methodology: a gap after every frame, including the last.
  EXPECT_EQ(stats.finished_at, Time::ms(12));
}

TEST(Pump, MpegFileSourceAccumulatesOffsets) {
  mpeg::EncoderParams ep;
  ep.seed = 7;
  const auto file = mpeg::SyntheticEncoder{ep}.generate(5);
  auto src = mpeg_file_source(file, /*stream=*/3, /*base=*/1000,
                              Provenance::kNiDisk);
  std::uint64_t expected_off = 1000;
  for (std::uint64_t k = 0; k < 5; ++k) {
    StagedFrame f;
    ASSERT_TRUE(src(k, f));
    EXPECT_EQ(f.stream, 3u);
    EXPECT_EQ(f.disk_offset, expected_off);
    EXPECT_EQ(f.bytes, file.frames[k].bytes);
    EXPECT_EQ(f.type, file.frames[k].type);
    expected_off += file.frames[k].bytes;
  }
  StagedFrame f;
  EXPECT_FALSE(src(5, f));
}

TEST(Paths, AllPaperPathsCompose) {
  sim::Engine eng;
  hw::Calibration cal;
  hw::CpuModel cpu{hw::kI960Rd};
  hw::PciBus bus{eng, cal.pci};
  hw::EthernetSwitch ether{eng, cal.ethernet};
  hw::ScsiDisk disk{eng, cal.disk, 11};
  hostos::HostMachine host{eng, 1, cal, Time::sec(1)};
  hostos::UfsFilesystem ufs{eng, disk, cal.fs};
  hostos::Process& proc = host.spawn("prod");
  rtos::WindKernel kernel{eng, cpu, cal.rtos};
  rtos::Task& task = kernel.spawn("tProd", 120);
  dvcm::StreamService svc{eng, {}, cpu, cal.ni_int, cal.ni_softfp, nullptr};
  net::UdpEndpoint ep{eng, ether, cal.ethernet.stack_traversal,
                      net::UdpEndpoint::Receiver{}};

  // Every paper path builds and carries the stage sequence its Figure 3
  // arrow diagram says it should.
  const auto names = [](const FramePath& p) {
    std::vector<std::string> v;
    for (std::size_t i = 0; i < p.stage_count(); ++i) {
      v.emplace_back(p.stage_at(i).name());
    }
    return v;
  };
  using V = std::vector<std::string>;
  EXPECT_EQ(names(critical_path_a(eng, ufs, ep, 1)), (V{"fs", "send"}));
  EXPECT_EQ(names(critical_path_b(eng, disk, bus, ep, 1)),
            (V{"disk", "pci", "send"}));
  EXPECT_EQ(names(critical_path_c(eng, disk, ep, 1)), (V{"disk", "send"}));
  EXPECT_EQ(names(producer_path_a(host, proc, ufs, svc)),
            (V{"fs", "segment", "enqueue"}));
  EXPECT_EQ(names(producer_path_b(eng, disk, task, bus, svc)),
            (V{"disk", "segment", "pci", "enqueue"}));
  EXPECT_EQ(names(producer_path_c(eng, disk, task, svc)),
            (V{"disk", "segment", "enqueue"}));
  EXPECT_EQ(names(synthetic_producer_path(eng, task, svc)),
            (V{"segment", "enqueue"}));
}

}  // namespace
}  // namespace nistream::path
