// Tests for the UDP endpoint layer over the Ethernet model.
#include "net/udp.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace nistream::net {
namespace {

using sim::Time;

struct Fixture {
  sim::Engine eng;
  hw::EthernetSwitch ether{eng};
  std::vector<std::pair<Packet, Time>> received;
  UdpEndpoint rx{eng, ether, Time::us(100),
                 [this](const Packet& p, Time at) { received.emplace_back(p, at); }};
  UdpEndpoint tx{eng, ether, Time::us(100), UdpEndpoint::Receiver{}};
};

TEST(Udp, DeliversPacketWithMetadata) {
  Fixture f;
  Packet p{.stream_id = 3, .seq = 9, .bytes = 1000,
           .frame_type = mpeg::FrameType::kI, .enqueued_at = Time::ms(1),
           .dispatched_at = Time::ms(2)};
  f.tx.send(f.rx.port(), p);
  f.eng.run();
  ASSERT_EQ(f.received.size(), 1u);
  EXPECT_EQ(f.received[0].first.stream_id, 3u);
  EXPECT_EQ(f.received[0].first.seq, 9u);
  EXPECT_EQ(f.received[0].first.enqueued_at, Time::ms(1));
}

TEST(Udp, EndToEndLatencyIsStacksPlusWire) {
  Fixture f;
  f.tx.send(f.rx.port(), Packet{.bytes = 1000});
  f.eng.run();
  ASSERT_EQ(f.received.size(), 1u);
  // 2 x 100us stacks + 2 x serialization(1028B) + switch latency.
  const double wire2 = 2 * f.ether.wire_time(1000 + UdpEndpoint::kUdpIpHeaderBytes).to_us();
  const double expect = 200.0 + wire2 + f.ether.params().switch_latency.to_us();
  EXPECT_NEAR(f.received[0].second.to_us(), expect, 0.5);
}

TEST(Udp, NiStackCalibration) {
  // Two NI-class stacks + wire for a 1000-byte frame ~ 1.2 ms (Table 4).
  sim::Engine eng;
  hw::EthernetSwitch ether{eng};
  Time got = Time::never();
  UdpEndpoint rx{eng, ether, kNiStackCost,
                 [&](const Packet&, Time at) { got = at; }};
  UdpEndpoint tx{eng, ether, kNiStackCost, UdpEndpoint::Receiver{}};
  tx.send(rx.port(), Packet{.bytes = 1000});
  eng.run();
  EXPECT_NEAR(got.to_ms(), 1.2, 0.12);
}

TEST(Udp, CountersTrack) {
  Fixture f;
  for (int i = 0; i < 5; ++i) {
    f.tx.send(f.rx.port(), Packet{.seq = static_cast<std::uint64_t>(i),
                                  .bytes = 500});
  }
  f.eng.run();
  EXPECT_EQ(f.tx.packets_sent(), 5u);
  EXPECT_EQ(f.tx.bytes_sent(), 2500u);
  EXPECT_EQ(f.rx.packets_received(), 5u);
  EXPECT_EQ(f.received.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(f.received[i].first.seq, i);  // in-order delivery
  }
}

TEST(Udp, ForeignFramesIgnored) {
  Fixture f;
  // A raw Ethernet frame without a Packet payload must not crash or count.
  const int client = f.ether.add_port([](const hw::EthFrame&) {});
  (void)client;
  f.ether.send(f.tx.port(), f.rx.port(), hw::EthFrame{.bytes = 64});
  f.eng.run();
  EXPECT_TRUE(f.received.empty());
  EXPECT_EQ(f.rx.packets_received(), 0u);
}

TEST(UdpTeardown, DestroyedEndpointDropsItsDatagramsAndFreesItsPort) {
  // One datagram waits out the receiver's 500 us stack, one is still on the
  // wire, when the receiver is destroyed. Under ASan neither touches freed
  // memory; once the wire is clear the port goes to the next device.
  sim::Engine eng;
  hw::EthernetSwitch ether{eng};
  int received = 0;
  auto rx = std::make_unique<UdpEndpoint>(
      eng, ether, Time::us(500),
      [&received](const Packet&, Time) { ++received; });
  UdpEndpoint tx{eng, ether, Time::us(50), UdpEndpoint::Receiver{}};
  const int dead = rx->port();
  tx.send(dead, Packet{.seq = 0, .bytes = 1000});
  eng.schedule_at(Time::us(200),
                  [&] { tx.send(dead, Packet{.seq = 1, .bytes = 1000}); });
  eng.run_until(Time::us(350));
  ASSERT_EQ(ether.frames_in_flight(), 1u);  // the second, on the wire
  ASSERT_EQ(eng.pending_events(), 2u);      // it, and the first's stack delay
  rx.reset();
  eng.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(ether.frames_to_detached(), 1u);
  const int next = ether.add_port([](const hw::EthFrame&) {});
  EXPECT_EQ(hw::EthernetSwitch::index_of(next),
            hw::EthernetSwitch::index_of(dead));
  EXPECT_NE(next, dead);
}

}  // namespace
}  // namespace nistream::net
