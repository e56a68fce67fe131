// Tests for remote DVCM invocation: NI-to-NI instruction transport across
// the cluster interconnect — the distributed stream path of §1.
#include "dvcm/remote.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "apps/client.hpp"
#include "apps/media_server.hpp"
#include "dvcm/dwcs_extension.hpp"

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
  RemoteVcmPort remote_port{sched_node.runtime(), ether,
                            cal.ethernet.stack_traversal};
  // Producer node: a separate board on its own PCI segment.
  hw::PciBus prod_bus{eng};
  hw::NicBoard producer_board{"producer-node", eng, prod_bus, ether,
                              [](const hw::EthFrame&) {}};
  RemoteVcmClient remote_client{eng, ether, cal.ethernet.stack_traversal};
  apps::MpegClient client{eng, ether};
};

TEST(RemoteVcm, InstructionCrossesTheInterconnect) {
  ClusterFixture f;
  std::uint64_t got = 0;
  f.sched_node.runtime().registry().add(
      kExtensionBase + 0x700, [&](const hw::I2oMessage& m) { got = m.w0; });
  f.remote_client.invoke(f.remote_port.port(), kExtensionBase + 0x700, 4242,
                         nullptr);
  f.eng.run_until(Time::ms(50));
  EXPECT_EQ(got, 4242u);
  EXPECT_EQ(f.remote_port.dispatched(), 1u);
  EXPECT_EQ(f.remote_client.sent(), 1u);
}

TEST(RemoteVcm, UnknownInstructionCounted) {
  ClusterFixture f;
  f.remote_client.invoke(f.remote_port.port(), 0xBAD0, 0, nullptr);
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
    f.remote_client.invoke(f.remote_port.port(), kExtensionBase + 0x701, 0,
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
      f.remote_client.invoke(f.remote_port.port(), kDwcsEnqueueFrame, sid, fr,
                             /*bulk_bytes=*/1000);
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
  f.remote_client.invoke(f.remote_port.port(), kDwcsEnqueueFrame, sid, fr, 700);
  f.eng.run_until(Time::ms(200));
  EXPECT_EQ(f.client.frames_received(sid), 2u);
  EXPECT_EQ(f.client.total_bytes(), 1200u);
}

// Over a degraded interconnect segment, the raw path loses instructions;
// the TcpLite-backed path delivers every one, exactly once and in order.
TEST(RemoteVcm, ReliableVariantSurvivesLossyInterconnect) {
  hw::Calibration cal;
  cal.ethernet.loss_rate = 0.15;
  cal.ethernet.loss_seed = 33;
  sim::Engine eng;
  hw::PciBus bus{eng};
  hw::EthernetSwitch ether{eng, cal.ethernet};
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

TEST(RemoteVcmTeardown, DestroyedClientDuringStackDelaySendsNothing) {
  ClusterFixture f;
  auto client = std::make_unique<RemoteVcmClient>(
      f.eng, f.ether, f.cal.ethernet.stack_traversal);
  client->invoke(f.remote_port.port(), kExtensionBase + 0x700, 1, nullptr);
  client.reset();  // the instruction is still in the client's stack
  f.eng.run_until(Time::ms(50));
  EXPECT_EQ(f.remote_port.dispatched(), 0u);
  EXPECT_EQ(f.remote_port.unknown_instructions(), 0u);
}

TEST(RemoteVcmTeardown, DestroyedPortDropsTheInstructionInItsStack) {
  ClusterFixture f;
  auto port = std::make_unique<RemoteVcmPort>(
      f.sched_node.runtime(), f.ether, f.cal.ethernet.stack_traversal);
  const int dead = port->port();
  f.remote_client.invoke(dead, kExtensionBase + 0x700, 1, nullptr);
  // The sender's 555 us stack, then ~20 us on the wire: by now the
  // instruction has landed and waits out the port's own stack delay.
  f.eng.run_until(f.cal.ethernet.stack_traversal + Time::us(100));
  ASSERT_EQ(f.ether.frames_in_flight(), 0u);
  port.reset();
  f.eng.run_until(Time::ms(50));
  EXPECT_EQ(f.remote_port.dispatched(), 0u);
  f.remote_client.invoke(dead, kExtensionBase + 0x700, 2, nullptr);
  f.eng.run_until(Time::ms(100));
  EXPECT_EQ(f.ether.frames_to_detached(), 1u);
}

TEST(RemoteVcmTeardown, DestroyedPortMidDispatchResumesNothing) {
  // The port goes away while its dispatch task is charging the NI CPU for
  // an instruction it has already dispatched: when the charge completes the
  // task must not count it on the dead port.
  const auto destroy_mid_dispatch = [](ClusterFixture& f, auto port,
                                       const auto& invoke) {
    bool handled = false;
    f.sched_node.runtime().registry().add(
        kExtensionBase + 0x703, [&](const hw::I2oMessage&) { handled = true; });
    invoke(port->port());
    while (!handled && f.eng.step()) {}
    ASSERT_TRUE(handled);
    ASSERT_EQ(port->dispatched(), 0u);  // the charge is still running
    port.reset();
    f.eng.run_until(f.eng.now() + Time::ms(50));
  };
  {
    ClusterFixture f;
    destroy_mid_dispatch(
        f,
        std::make_unique<RemoteVcmPort>(f.sched_node.runtime(), f.ether,
                                        f.cal.ethernet.stack_traversal),
        [&](int dst) {
          f.remote_client.invoke(dst, kExtensionBase + 0x703, 1, nullptr);
        });
  }
  {
    ClusterFixture f;
    auto port = std::make_unique<ReliableRemoteVcmPort>(
        f.sched_node.runtime(), f.ether, f.cal.ethernet.stack_traversal);
    ReliableRemoteVcmClient client{f.eng, f.ether,
                                   f.cal.ethernet.stack_traversal,
                                   port->port()};
    destroy_mid_dispatch(f, std::move(port), [&](int) {
      client.invoke(kExtensionBase + 0x703, 1, nullptr);
    });
  }
}

}  // namespace
}  // namespace nistream::dvcm
