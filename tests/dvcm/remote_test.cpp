// Tests for remote DVCM invocation: NI-to-NI instruction transport across
// the cluster interconnect — the distributed stream path of §1.
#include "dvcm/remote.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "apps/client.hpp"
#include "apps/media_server.hpp"
#include "dvcm/dwcs_extension.hpp"
#include "fault/injector.hpp"

namespace nistream::dvcm {
namespace {

using sim::Time;

struct ClusterFixture {
  hw::Calibration cal;
  sim::Engine eng;
  hw::PciBus sched_bus{eng};
  hw::EthernetSwitch ether{eng};
  // Scheduler node: the board running DWCS.
  apps::NiSchedulerServer sched_node{eng, sched_bus, ether,
                                     dvcm::StreamService::Config{}, cal};
  // Its DVCM listens on the cluster interconnect too.
  ReliableRemoteVcmPort remote_port{sched_node.runtime(), ether,
                                    cal.ethernet.stack_traversal};
  // Producer node: a separate board on its own PCI segment.
  hw::PciBus prod_bus{eng};
  hw::NicBoard producer_board{"producer-node", eng, prod_bus, ether,
                              [](const hw::EthFrame&) {}};
  ReliableRemoteVcmClient remote_client{eng, ether,
                                       cal.ethernet.stack_traversal,
                                       remote_port.port()};
  apps::MpegClient client{eng, ether};
};

TEST(RemoteVcm, InstructionCrossesTheInterconnect) {
  ClusterFixture f;
  std::uint64_t got = 0;
  f.sched_node.runtime().registry().add(
      kExtensionBase + 0x700, [&](const hw::I2oMessage& m) { got = m.w0; });
  f.remote_client.invoke(kExtensionBase + 0x700, 4242, nullptr);
  f.eng.run_until(Time::ms(50));
  EXPECT_EQ(got, 4242u);
  EXPECT_EQ(f.remote_port.dispatched(), 1u);
}

TEST(RemoteVcm, UnknownInstructionCounted) {
  ClusterFixture f;
  f.remote_client.invoke(0xBAD0, 0, nullptr);
  f.eng.run_until(Time::ms(50));
  EXPECT_EQ(f.remote_port.unknown_instructions(), 1u);
}

TEST(RemoteVcm, PayloadTravelsIntact) {
  ClusterFixture f;
  std::uint64_t sum = 0;
  f.sched_node.runtime().registry().add(
      kExtensionBase + 0x701, [&](const hw::I2oMessage& m) {
        sum += *std::static_pointer_cast<std::uint64_t>(m.payload);
      });
  for (std::uint64_t i = 1; i <= 10; ++i) {
    f.remote_client.invoke(kExtensionBase + 0x701, 0,
                           std::make_shared<std::uint64_t>(i));
  }
  f.eng.run_until(Time::ms(100));
  EXPECT_EQ(sum, 55u);
}

// The §1 distributed-stream claim: a producer node feeds the scheduler
// node's DWCS extension over the network; frames reach the client and no
// host CPU anywhere touches a byte.
TEST(RemoteVcm, NetworkProducerFeedsRemoteScheduler) {
  ClusterFixture f;
  const auto sid = f.sched_node.service().create_stream(
      {.tolerance = {1, 4}, .period = Time::ms(20), .lossy = true},
      f.client.port());

  // Producer task on the producer board: read frames from its local disk,
  // push each across the interconnect as a remote kDwcsEnqueueFrame.
  rtos::WindKernel producer_kernel{f.eng, f.producer_board.cpu()};
  rtos::Task& task = producer_kernel.spawn("tNetProd", 100);
  constexpr int kFrames = 25;
  auto producer = [&]() -> sim::Coro {
    for (int i = 0; i < kFrames; ++i) {
      co_await f.producer_board.disk(0).read(
          static_cast<std::uint64_t>(i) * 100'000, 1000);
      co_await task.consume_cycles(900);
      auto fr = std::make_shared<EnqueueFrameRequest>();
      fr->bytes = 1000;
      fr->type = mpeg::FrameType::kP;
      f.remote_client.invoke(kDwcsEnqueueFrame, sid, fr, /*bulk_bytes=*/1000);
    }
  };
  producer().detach();
  f.eng.run_until(Time::sec(3));

  EXPECT_EQ(f.client.frames_received(sid), static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(f.remote_port.dispatched(), static_cast<std::uint64_t>(kFrames));
  // Traffic elimination: neither PCI segment carried frame data (the frames
  // entered the scheduler NI from the network and left on its other port).
  EXPECT_EQ(f.sched_bus.bytes_moved(), 0u);
  EXPECT_EQ(f.prod_bus.bytes_moved(), 0u);
}

TEST(RemoteVcm, RemoteAndI2oPathsCoexist) {
  ClusterFixture f;
  const auto sid = f.sched_node.service().create_stream(
      {.tolerance = {1, 4}, .period = Time::ms(10), .lossy = true},
      f.client.port());
  // One frame via the host's I2O path...
  auto host = [&]() -> sim::Coro {
    auto fr = std::make_shared<EnqueueFrameRequest>();
    fr->bytes = 500;
    fr->type = mpeg::FrameType::kI;
    co_await f.sched_node.host_api().invoke(kDwcsEnqueueFrame, sid, fr);
  };
  host().detach();
  // ...and one via the interconnect.
  auto fr = std::make_shared<EnqueueFrameRequest>();
  fr->bytes = 700;
  fr->type = mpeg::FrameType::kP;
  f.remote_client.invoke(kDwcsEnqueueFrame, sid, fr, 700);
  f.eng.run_until(Time::ms(200));
  EXPECT_EQ(f.client.frames_received(sid), 2u);
  EXPECT_EQ(f.client.total_bytes(), 1200u);
}

// Over a degraded interconnect segment, where frames are lost, the
// TcpLite-backed path delivers every instruction, exactly once and in order.
TEST(RemoteVcm, ReliableVariantSurvivesLossyInterconnect) {
  hw::Calibration cal;
  fault::LinkFaultInjector loss{{.frame_loss_rate = 0.15}, sim::Rng{33}};
  sim::Engine eng;
  hw::PciBus bus{eng};
  hw::EthernetSwitch ether{eng, cal.ethernet};
  ether.set_fault(&loss);
  apps::NiSchedulerServer sched_node{eng, bus, ether,
                                     dvcm::StreamService::Config{}, cal};
  ReliableRemoteVcmPort port{sched_node.runtime(), ether,
                             cal.ethernet.stack_traversal};
  ReliableRemoteVcmClient client{eng, ether, cal.ethernet.stack_traversal,
                                 port.port()};
  std::vector<std::uint64_t> got;
  sched_node.runtime().registry().add(
      kExtensionBase + 0x702,
      [&](const hw::I2oMessage& m) { got.push_back(m.w0); });
  constexpr std::uint64_t kCount = 80;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    client.invoke(kExtensionBase + 0x702, i, nullptr, 500);
  }
  eng.run_until(Time::sec(20));
  ASSERT_EQ(got.size(), kCount);
  for (std::uint64_t i = 0; i < kCount; ++i) ASSERT_EQ(got[i], i);
  EXPECT_GT(client.transport().retransmissions(), 0u);
  EXPECT_GT(ether.frames_lost(), 0u);
  EXPECT_EQ(port.dispatched(), kCount);
}

// --- Owner-safe teardown. Endpoints are heap-allocated so a use after free
// is a sanitizer error, not a read of a dead stack slot.

TEST(RemoteVcmTeardown, DestroyedPortMidDispatchResumesNothing) {
  // The port goes away while its dispatch task is charging the NI CPU for
  // an instruction it has already dispatched: when the charge completes the
  // task must not count it on the dead port.
  ClusterFixture f;
  auto port = std::make_unique<ReliableRemoteVcmPort>(
      f.sched_node.runtime(), f.ether, f.cal.ethernet.stack_traversal);
  ReliableRemoteVcmClient client{f.eng, f.ether,
                                 f.cal.ethernet.stack_traversal, port->port()};
  bool handled = false;
  f.sched_node.runtime().registry().add(
      kExtensionBase + 0x703, [&](const hw::I2oMessage&) { handled = true; });
  client.invoke(kExtensionBase + 0x703, 1, nullptr);
  while (!handled && f.eng.step()) {}
  ASSERT_TRUE(handled);
  ASSERT_EQ(port->dispatched(), 0u);  // the charge is still running
  port.reset();
  f.eng.run_until(f.eng.now() + Time::ms(50));
}

}  // namespace
}  // namespace nistream::dvcm
