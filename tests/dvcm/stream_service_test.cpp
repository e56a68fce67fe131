// Tests for the stream-scheduling service and the DWCS DVCM extension: paced
// dispatch, memory accounting, host-driven stream setup, end-to-end frame
// delivery to a client.
#include "dvcm/stream_service.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "apps/client.hpp"
#include "apps/media_server.hpp"
#include "dvcm/dwcs_extension.hpp"

namespace nistream::dvcm {
namespace {

using sim::Time;

struct ServiceFixture {
  sim::Engine eng;
  hw::CpuModel cpu{hw::kI960Rd};
  hw::Calibration cal;
  hw::MemoryPool memory{4ull * 1024 * 1024};
  hw::EthernetSwitch ether{eng};
  rtos::WindKernel kernel{eng, cpu};
  StreamService service{eng, StreamService::Config{}, cpu, cal.ni_int,
                        cal.ni_softfp, &memory};
  apps::MpegClient client{eng, ether, net::kHostStackCost};
  net::UdpEndpoint ep{eng, ether, net::kNiStackCost,
                      net::UdpEndpoint::Receiver{}};
};

TEST(StreamService, PacedDispatchAtFramePeriod) {
  ServiceFixture f;
  const auto id = f.service.create_stream(
      {.tolerance = {1, 4}, .period = Time::ms(20), .lossy = true},
      f.client.port());
  for (int i = 0; i < 10; ++i) f.service.enqueue(id, 1000, mpeg::FrameType::kP);
  rtos::Task& task = f.kernel.spawn("tSched", 50);
  f.service.run(task, f.ep).detach();
  f.eng.run_until(Time::ms(500));
  // Paced at 20 ms: 10 frames in 200 ms, all delivered.
  EXPECT_EQ(f.service.dispatched(), 10u);
  EXPECT_EQ(f.client.frames_received(id), 10u);
  // Delivery instants spaced by the period.
  f.client.finish(Time::ms(500));
  EXPECT_EQ(f.client.total_frames(), 10u);
}

TEST(StreamService, SingleFrameCopyAccounting) {
  ServiceFixture f;
  const auto id = f.service.create_stream(
      {.tolerance = {1, 4}, .period = Time::ms(10), .lossy = true},
      f.client.port());
  EXPECT_EQ(f.memory.used(), 0u);
  f.service.enqueue(id, 2000, mpeg::FrameType::kI);
  f.service.enqueue(id, 3000, mpeg::FrameType::kP);
  EXPECT_EQ(f.memory.used(), 5000u);  // one copy per queued frame
  rtos::Task& task = f.kernel.spawn("tSched", 50);
  f.service.run(task, f.ep).detach();
  f.eng.run_until(Time::ms(100));
  EXPECT_EQ(f.memory.used(), 0u);  // released at dispatch
}

TEST(StreamService, MemoryExhaustionRejectsFrames) {
  ServiceFixture f;
  hw::MemoryPool tiny{3000};
  StreamService svc{f.eng, StreamService::Config{}, f.cpu, f.cal.ni_int,
                    f.cal.ni_softfp, &tiny};
  const auto id = svc.create_stream(
      {.tolerance = {1, 4}, .period = Time::ms(10), .lossy = true}, 0);
  EXPECT_TRUE(svc.enqueue(id, 2000, mpeg::FrameType::kI));
  EXPECT_FALSE(svc.enqueue(id, 2000, mpeg::FrameType::kP));  // pool exhausted
  EXPECT_EQ(svc.rejected_no_memory(), 1u);
  EXPECT_EQ(tiny.used(), 2000u);
}

TEST(StreamService, RingFullRejection) {
  ServiceFixture f;
  StreamService::Config cfg;
  cfg.scheduler.ring_capacity = 2;
  StreamService svc{f.eng, cfg, f.cpu, f.cal.ni_int, f.cal.ni_softfp, nullptr};
  const auto id = svc.create_stream(
      {.tolerance = {1, 4}, .period = Time::ms(10), .lossy = true}, 0);
  EXPECT_TRUE(svc.enqueue(id, 100, mpeg::FrameType::kP));
  EXPECT_TRUE(svc.enqueue(id, 100, mpeg::FrameType::kP));
  EXPECT_FALSE(svc.enqueue(id, 100, mpeg::FrameType::kP));
  EXPECT_EQ(svc.rejected_ring_full(), 1u);
}

TEST(StreamService, QueuingDelayRecorded) {
  ServiceFixture f;
  const auto id = f.service.create_stream(
      {.tolerance = {1, 4}, .period = Time::ms(10), .lossy = true},
      f.client.port());
  // The service keeps no per-frame history; the (frame#, delay ms) series of
  // Figures 8/10 is read as each frame is dispatched.
  std::vector<std::pair<std::uint64_t, double>> q;
  f.service.set_dispatch_observer(
      [&](dwcs::StreamId sid, const dwcs::Dispatch& d) {
        ASSERT_EQ(sid, id);
        q.emplace_back(f.service.frames_sent(sid),
                       (f.eng.now() - d.frame.enqueued_at).to_ms());
      });
  for (int i = 0; i < 5; ++i) f.service.enqueue(id, 1000, mpeg::FrameType::kP);
  rtos::Task& task = f.kernel.spawn("tSched", 50);
  f.service.run(task, f.ep).detach();
  f.eng.run_until(Time::ms(200));
  ASSERT_EQ(q.size(), 5u);
  // Paced dispatch: frame k leaves at ~(k+1)*10 ms after enqueue at ~0.
  for (std::size_t k = 0; k < q.size(); ++k) {
    EXPECT_EQ(q[k].first, k + 1);
    EXPECT_NEAR(q[k].second, 10.0 * static_cast<double>(k + 1), 1.0);
  }
}

TEST(StreamService, TraceRecordsLifecycle) {
  // The service's own counters trace each frame from enqueue to dispatch.
  ServiceFixture f;
  const auto id = f.service.create_stream(
      {.tolerance = {1, 4}, .period = Time::ms(10), .lossy = true},
      f.client.port());
  for (int i = 0; i < 4; ++i) f.service.enqueue(id, 1000, mpeg::FrameType::kP);
  EXPECT_EQ(f.service.scheduler().stats(id).enqueued, 4u);
  EXPECT_EQ(f.service.scheduler().backlog(id), 4u);
  EXPECT_EQ(f.service.dispatched(), 0u);
  rtos::Task& task = f.kernel.spawn("tSched", 50);
  f.service.run(task, f.ep).detach();
  f.eng.run_until(Time::ms(100));
  EXPECT_EQ(f.service.dispatched(), 4u);
  EXPECT_EQ(f.service.frames_sent(id), 4u);
  EXPECT_EQ(f.service.scheduler().backlog(id), 0u);
  EXPECT_EQ(f.service.rejected_ring_full(), 0u);
}

// Full-stack DVCM test: host creates a stream via the instruction set, a
// host producer enqueues frames via I2O, the client receives them.
TEST(DwcsExtension, HostDrivenEndToEnd) {
  sim::Engine eng;
  hw::PciBus bus{eng};
  hw::EthernetSwitch ether{eng};
  apps::NiSchedulerServer server{eng, bus, ether};
  apps::MpegClient client{eng, ether};

  dwcs::StreamId sid = dwcs::kInvalidStream;
  auto host_app = [&]() -> sim::Coro {
    auto req = std::make_shared<CreateStreamRequest>();
    req->params = {.tolerance = {1, 4}, .period = Time::ms(20), .lossy = true};
    req->client_port = client.port();
    hw::I2oMessage reply;
    co_await server.host_api().call(kDwcsCreateStream, &reply, 0, req);
    sid = static_cast<dwcs::StreamId>(reply.w0);
    for (int i = 0; i < 8; ++i) {
      auto fr = std::make_shared<EnqueueFrameRequest>();
      fr->bytes = 1000;
      fr->type = mpeg::FrameType::kP;
      co_await server.host_api().invoke(kDwcsEnqueueFrame, sid, fr);
    }
  };
  host_app().detach();
  eng.run_until(Time::sec(1));
  EXPECT_EQ(sid, 0u);
  EXPECT_EQ(client.frames_received(sid), 8u);
  EXPECT_EQ(server.service().scheduler().stats(sid).serviced_on_time, 8u);
}

TEST(DwcsExtension, QueryStatsInstruction) {
  sim::Engine eng;
  hw::PciBus bus{eng};
  hw::EthernetSwitch ether{eng};
  apps::NiSchedulerServer server{eng, bus, ether};
  apps::MpegClient client{eng, ether};

  const auto sid = server.service().create_stream(
      {.tolerance = {1, 4}, .period = Time::ms(10), .lossy = true},
      client.port());
  server.service().enqueue(sid, 1500, mpeg::FrameType::kI);
  eng.run_until(Time::ms(100));

  hw::I2oMessage reply;
  bool done = false;
  auto host_app = [&]() -> sim::Coro {
    co_await server.host_api().call(kDwcsQueryStats, &reply, sid);
    done = true;
  };
  host_app().detach();
  eng.run_until(Time::ms(200));
  ASSERT_TRUE(done);
  EXPECT_EQ(reply.w0, 1500u);  // bytes sent
  EXPECT_EQ(reply.w1, 1u);     // serviced on time
}

}  // namespace
}  // namespace nistream::dvcm
