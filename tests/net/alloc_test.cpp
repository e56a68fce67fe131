// Allocation audit for the control-plane substrate. Idle mailboxes, TcpLite
// senders and receivers own no heap memory; a receiver's first peer costs
// nothing; a steady exchange allocates nothing, neither per data segment
// (segments are pooled packet boxes) nor per ACK; a retransmitted segment
// reuses the body of its first transmission; a busy downlink reuses its
// queue nodes. Same counting-operator-new shim (counting_new.hpp) as the datapath
// audit in tests/path/alloc_free_test.cpp.
//
// Under ASan/TSan the sanitizer owns the allocator, so the counts read 0 and
// the tests only exercise the same code.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "counting_new.hpp"
#include "hw/ethernet.hpp"
#include "net/tcplite.hpp"
#include "session/rtsp.hpp"
#include "sim/coro.hpp"

namespace nistream::net {
namespace {

using sim::Time;

TEST(MailboxAllocFree, ConstructionAllocatesNothing) {
  sim::Engine eng;
  const std::uint64_t before = test::heap_allocs();
  {
    sim::Mailbox<session::RtspResponse> responses{eng};
    sim::Mailbox<std::string> text{eng};
    EXPECT_TRUE(responses.empty());
    EXPECT_TRUE(text.empty());
  }
  EXPECT_EQ(test::heap_allocs() - before, 0u);
}

TEST(TcpLiteAllocFree, ConstructionAllocatesOnlyPortTableGrowth) {
  // An idle sender or receiver owns no heap memory. Each one does take a
  // switch port, and the switch's port table grows geometrically, so a
  // fleet of n endpoints costs O(log n) allocations in all, never one per
  // endpoint (a std::deque send queue alone was two per sender).
  constexpr std::size_t kEach = 1024;
  sim::Engine eng;
  hw::EthernetSwitch ether{eng};
  const TcpLiteReceiver::DeliverFrom deliver = [](const Packet&, int, Time) {};
  std::vector<std::optional<TcpLiteReceiver>> receivers(kEach);
  std::vector<std::optional<TcpLiteSender>> senders(kEach);

  const std::uint64_t before = test::heap_allocs();
  for (std::size_t i = 0; i < kEach; ++i) {
    receivers[i].emplace(eng, ether, Time::us(50), deliver);
    senders[i].emplace(eng, ether, Time::us(50), receivers[i]->port());
  }
  EXPECT_LE(test::heap_allocs() - before, 16u)
      << "endpoints allocate per instance";
  EXPECT_TRUE(senders.back()->idle());
}

TEST(TcpLiteAllocFree, RetransmissionsReuseTheFirstTransmissionsSegment) {
  // The peer never ACKs, so the sender retransmits its one segment every RTO.
  sim::Engine eng;
  // Give the engine's slab and free list the few slots an RTO round needs
  // beyond what the first transmission grew, so only the sender is audited.
  for (int i = 0; i < 4; ++i) eng.schedule_at(Time::zero(), [] {});
  eng.run();
  hw::EthernetSwitch ether{eng};
  std::uint64_t arrivals = 0;
  const int sink = ether.add_port([&](const hw::EthFrame&) { ++arrivals; });
  TcpLiteSender tx{eng, ether, Time::us(50), sink,
                   TcpLiteSender::Params{.window = 8}};
  tx.send(Packet{.seq = 0, .bytes = 500});
  eng.run_until(Time::ms(10));
  ASSERT_EQ(arrivals, 1u);  // the first transmission has landed
  ASSERT_EQ(tx.retransmissions(), 0u);

  const std::uint64_t before = test::heap_allocs();
  test::trace_next_allocs(8);
  // The backed-off RTO rounds: 1, 3, 7, 15, 31, 63, 123 and 183 s.
  eng.run_until(Time::sec(184));
  EXPECT_EQ(tx.retransmissions(), 8u);
  EXPECT_EQ(arrivals, 9u);
  EXPECT_EQ(test::heap_allocs() - before, 0u)
      << "a retransmission allocated";
}

TEST(TcpLiteAllocFree, SteadyExchangeAllocatesPerSegmentNeverPerAck) {
  sim::Engine eng;
  hw::EthernetSwitch ether{eng};
  std::uint64_t delivered = 0;
  TcpLiteReceiver rx{eng, ether, Time::us(50),
                     TcpLiteReceiver::Deliver{
                         [&](const Packet&, Time) { ++delivered; }}};
  TcpLiteSender tx{eng, ether, Time::us(50), rx.port(),
                   TcpLiteSender::Params{.window = 8}};
  constexpr std::uint64_t kSegments = 64;
  const auto exchange = [&] {
    for (std::uint64_t i = 0; i < kSegments; ++i) {
      tx.send(Packet{.seq = i, .bytes = 500});
    }
    eng.run();  // every segment ACKed, the timer stopped
  };
  exchange();  // warm-up: the slab, the node pool, the queue, the box pool
  ASSERT_EQ(delivered, kSegments);

  const std::uint64_t before = test::heap_allocs();
  test::trace_next_allocs(8);
  exchange();
  EXPECT_EQ(delivered, 2 * kSegments);
  EXPECT_EQ(tx.acked(), 2 * kSegments);
  EXPECT_EQ(tx.retransmissions(), 0u);
  // Each send() took a pooled segment box back from an acknowledged one,
  // and the receiver sent one ACK per segment.
  EXPECT_EQ(test::heap_allocs() - before, 0u)
      << "a segment or an ACK allocated";
}

TEST(TcpLiteAllocFree, ReceiversFirstPeerAllocatesNothing) {
  sim::Engine eng;
  hw::EthernetSwitch ether{eng};
  {  // warm-up on another pair: the slab, the node pool, the box pool
    TcpLiteReceiver rx{eng, ether, Time::us(50),
                       TcpLiteReceiver::Deliver{[](const Packet&, Time) {}}};
    TcpLiteSender tx{eng, ether, Time::us(50), rx.port()};
    for (std::uint64_t i = 0; i < 8; ++i) tx.send(Packet{.seq = i});
    eng.run();
  }
  std::uint64_t delivered = 0;
  TcpLiteReceiver rx{eng, ether, Time::us(50),
                     TcpLiteReceiver::Deliver{
                         [&](const Packet&, Time) { ++delivered; }}};
  TcpLiteSender tx{eng, ether, Time::us(50), rx.port()};
  tx.send(Packet{.seq = 0, .bytes = 500});  // grows the sender's queue

  const std::uint64_t before = test::heap_allocs();
  test::trace_next_allocs(8);
  eng.run();
  EXPECT_EQ(delivered, 1u);
  EXPECT_EQ(rx.peer_count(), 1u);
  EXPECT_EQ(tx.acked(), 1u);
  EXPECT_EQ(test::heap_allocs() - before, 0u) << "the first peer allocated";
}

TEST(EthernetAllocFree, BusyPortReusesItsQueueNodes) {
  sim::Engine eng;
  hw::EthernetSwitch ether{eng};
  std::uint64_t delivered = 0;
  const int dst = ether.add_port([&](const hw::EthFrame&) { ++delivered; });
  std::vector<int> srcs;
  for (int i = 0; i < 4; ++i) {
    srcs.push_back(ether.add_port([](const hw::EthFrame&) {}));
  }
  std::size_t peak = 0;
  const auto burst = [&] {
    for (std::size_t i = 0; i < 3000; ++i) {
      ether.send(srcs[i % srcs.size()], dst, hw::EthFrame{.bytes = 1000});
    }
    peak = std::max(peak, ether.frames_in_flight());
    eng.run();
  };
  burst();  // warm-up: grows the node pool and the engine's slab
  ASSERT_EQ(ether.frames_in_flight(), 0u);

  const std::uint64_t before = test::heap_allocs();
  for (int round = 0; round < 10; ++round) burst();
  EXPECT_EQ(test::heap_allocs() - before, 0u) << "queue nodes not reused";
  EXPECT_EQ(peak, 3000u);
  EXPECT_EQ(delivered, 11u * 3000u);
}

}  // namespace
}  // namespace nistream::net
