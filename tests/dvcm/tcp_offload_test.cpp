// Tests for the TCP-offload DVCM extension: reliable delivery driven
// entirely through I2O instructions, over clean and lossy segments.
#include "dvcm/tcp_offload_extension.hpp"

#include <gtest/gtest.h>

#include "apps/media_server.hpp"
#include "fault/injector.hpp"

namespace nistream::dvcm {
namespace {

using sim::Time;

struct Fixture {
  hw::Calibration cal;
  sim::Engine eng;
  hw::PciBus bus{eng};
  fault::LinkFaultInjector loss;
  std::unique_ptr<hw::EthernetSwitch> ether;
  std::unique_ptr<apps::NiSchedulerServer> server;
  TcpOffloadExtension* tcp = nullptr;
  std::vector<std::uint64_t> delivered;
  std::unique_ptr<net::TcpLiteReceiver> rx;

  explicit Fixture(double loss_rate = 0.0)
      : loss{{.frame_loss_rate = loss_rate}, sim::Rng{21}} {
    ether = std::make_unique<hw::EthernetSwitch>(eng, cal.ethernet);
    ether->set_fault(&loss);
    server = std::make_unique<apps::NiSchedulerServer>(
        eng, bus, *ether, dvcm::StreamService::Config{}, cal);
    auto ext = std::make_unique<TcpOffloadExtension>(*ether);
    tcp = ext.get();
    server->runtime().load_extension(std::move(ext));
    rx = std::make_unique<net::TcpLiteReceiver>(
        eng, *ether, Time::us(100),
        [this](const net::Packet& p, Time) { delivered.push_back(p.seq); });
  }
};

TEST(TcpOffload, HostDrivenReliableSend) {
  Fixture f;
  std::uint64_t cid = 0, acked = 0;
  auto host = [&]() -> sim::Coro {
    hw::I2oMessage reply;
    co_await f.server->host_api().call(
        kTcpOpen, &reply, static_cast<std::uint64_t>(f.rx->port()));
    cid = reply.w0;
    for (std::uint64_t i = 0; i < 20; ++i) {
      auto req = std::make_shared<TcpSendRequest>();
      req->packet = net::Packet{.seq = i, .bytes = 900};
      co_await f.server->host_api().invoke(kTcpSend, cid, req);
    }
    co_await sim::Delay{f.eng, Time::ms(500)};
    co_await f.server->host_api().call(kTcpStatus, &reply, cid);
    acked = reply.w0;
  };
  host().detach();
  f.eng.run_until(Time::sec(2));
  EXPECT_EQ(cid, 1u);
  ASSERT_EQ(f.delivered.size(), 20u);
  for (std::uint64_t i = 0; i < 20; ++i) EXPECT_EQ(f.delivered[i], i);
  EXPECT_EQ(acked, 20u);
}

TEST(TcpOffload, RetransmitsOnLossyLinkWithoutHostInvolvement) {
  Fixture f{/*loss_rate=*/0.15};
  std::uint64_t retransmissions = 0;
  auto host = [&]() -> sim::Coro {
    hw::I2oMessage reply;
    co_await f.server->host_api().call(
        kTcpOpen, &reply, static_cast<std::uint64_t>(f.rx->port()));
    const auto cid = reply.w0;
    for (std::uint64_t i = 0; i < 60; ++i) {
      auto req = std::make_shared<TcpSendRequest>();
      req->packet = net::Packet{.seq = i, .bytes = 700};
      co_await f.server->host_api().invoke(kTcpSend, cid, req);
    }
    co_await sim::Delay{f.eng, Time::sec(5)};
    co_await f.server->host_api().call(kTcpStatus, &reply, cid);
    retransmissions = reply.w1;
  };
  host().detach();
  f.eng.run_until(Time::sec(10));
  // Exactly-once, in-order delivery despite the losses...
  ASSERT_EQ(f.delivered.size(), 60u);
  for (std::uint64_t i = 0; i < 60; ++i) ASSERT_EQ(f.delivered[i], i);
  // ...and the recovery work happened on the board.
  EXPECT_GT(retransmissions, 0u);
  EXPECT_GT(f.ether->frames_lost(), 0u);
}

TEST(TcpOffload, UnknownConnectionIgnored) {
  Fixture f;
  auto host = [&]() -> sim::Coro {
    auto req = std::make_shared<TcpSendRequest>();
    req->packet = net::Packet{.seq = 1, .bytes = 100};
    co_await f.server->host_api().invoke(kTcpSend, 999, req);
    hw::I2oMessage reply{.w0 = 123};
    co_await f.server->host_api().call(kTcpStatus, &reply, 999);
    EXPECT_EQ(reply.w0, 0u);
  };
  host().detach();
  f.eng.run_until(Time::ms(100));
  EXPECT_TRUE(f.delivered.empty());
}

TEST(TcpOffload, CoexistsWithMediaScheduler) {
  Fixture f;
  // Both extensions are live on the same board.
  EXPECT_EQ(f.server->runtime().extensions().size(), 2u);
  EXPECT_STREQ(f.server->runtime().extensions()[0]->name(),
               "dwcs-media-sched");
  EXPECT_STREQ(f.server->runtime().extensions()[1]->name(), "tcp-offload");
}

}  // namespace
}  // namespace nistream::dvcm
