// Tests for the TcpLite reliable transport over clean and lossy segments,
// plus the Ethernet loss model it exists for.
#include "net/tcplite.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

namespace nistream::net {
namespace {

using sim::Time;

hw::EthernetParams lossy(double rate, std::uint64_t seed = 7) {
  hw::EthernetParams p;
  p.loss_rate = rate;
  p.loss_seed = seed;
  return p;
}

struct Link {
  sim::Engine eng;
  hw::EthernetSwitch ether;
  std::vector<std::uint64_t> delivered;
  TcpLiteReceiver rx;
  TcpLiteSender tx;

  explicit Link(const hw::EthernetParams& params = {},
                TcpLiteSender::Params sp = {})
      : ether{eng, params},
        rx{eng, ether, Time::us(50),
           [this](const Packet& p, Time) { delivered.push_back(p.seq); }},
        tx{eng, ether, Time::us(50), rx.port(), sp} {}
};

TEST(EthernetLoss, DropsConfiguredFraction) {
  sim::Engine eng;
  hw::EthernetSwitch sw{eng, lossy(0.2)};
  int got = 0;
  const int rx = sw.add_port([&](const hw::EthFrame&) { ++got; });
  const int tx = sw.add_port([](const hw::EthFrame&) {});
  for (int i = 0; i < 2000; ++i) sw.send(tx, rx, hw::EthFrame{.bytes = 100});
  eng.run();
  EXPECT_NEAR(got, 1600, 60);
  EXPECT_NEAR(static_cast<double>(sw.frames_lost()), 400, 60);
}

TEST(EthernetLoss, ZeroRateLosesNothing) {
  sim::Engine eng;
  hw::EthernetSwitch sw{eng};
  int got = 0;
  const int rx = sw.add_port([&](const hw::EthFrame&) { ++got; });
  const int tx = sw.add_port([](const hw::EthFrame&) {});
  for (int i = 0; i < 500; ++i) sw.send(tx, rx, hw::EthFrame{.bytes = 100});
  eng.run();
  EXPECT_EQ(got, 500);
  EXPECT_EQ(sw.frames_lost(), 0u);
}

TEST(TcpLite, CleanLinkDeliversInOrderWithoutRetransmit) {
  Link link;
  for (std::uint64_t i = 0; i < 50; ++i) {
    link.tx.send(Packet{.seq = i, .bytes = 1000});
  }
  link.eng.run_until(Time::sec(2));
  ASSERT_EQ(link.delivered.size(), 50u);
  for (std::uint64_t i = 0; i < 50; ++i) EXPECT_EQ(link.delivered[i], i);
  EXPECT_EQ(link.tx.retransmissions(), 0u);
  EXPECT_TRUE(link.tx.idle());
  EXPECT_EQ(link.tx.acked(), 50u);
}

TEST(TcpLite, SurvivesTenPercentLoss) {
  Link link{lossy(0.10)};
  constexpr std::uint64_t kCount = 300;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    link.tx.send(Packet{.seq = i, .bytes = 1000});
  }
  link.eng.run_until(Time::sec(30));
  ASSERT_EQ(link.delivered.size(), kCount);
  for (std::uint64_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(link.delivered[i], i) << "out of order at " << i;
  }
  EXPECT_GT(link.tx.retransmissions(), 0u);  // losses really happened
  EXPECT_GT(link.ether.frames_lost(), 0u);
}

TEST(TcpLite, SurvivesHeavyLoss) {
  Link link{lossy(0.35, 11), TcpLiteSender::Params{.window = 4,
                                                   .rto = Time::ms(10)}};
  constexpr std::uint64_t kCount = 100;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    link.tx.send(Packet{.seq = i, .bytes = 500});
  }
  link.eng.run_until(Time::sec(60));
  ASSERT_EQ(link.delivered.size(), kCount);
  for (std::uint64_t i = 0; i < kCount; ++i) ASSERT_EQ(link.delivered[i], i);
}

TEST(TcpLite, NoDuplicateDelivery) {
  // Duplicates arise when an ACK is lost and the sender retransmits data the
  // receiver already has; the receiver must re-ACK but not re-deliver.
  Link link{lossy(0.25, 3)};
  for (std::uint64_t i = 0; i < 120; ++i) {
    link.tx.send(Packet{.seq = i, .bytes = 800});
  }
  link.eng.run_until(Time::sec(60));
  ASSERT_EQ(link.delivered.size(), 120u);  // exactly once each
}

TEST(TcpLite, WindowLimitsInflight) {
  // With a window of 2 and no ACKs (receiver port detached via 100% loss),
  // at most 2 segments ever hit the wire per RTO.
  Link link{lossy(1.0, 5), TcpLiteSender::Params{.window = 2,
                                                 .rto = Time::ms(50)}};
  for (std::uint64_t i = 0; i < 10; ++i) {
    link.tx.send(Packet{.seq = i, .bytes = 100});
  }
  link.eng.run_until(Time::ms(40));  // before the first timeout
  // Nothing delivered, nothing acked, and only window-many transmissions.
  EXPECT_TRUE(link.delivered.empty());
  EXPECT_EQ(link.tx.acked(), 0u);
  EXPECT_EQ(link.ether.frames_lost(), 2u);  // exactly the window
}

TEST(TcpLiteTeardown, FinDeliveredInOrderClosesPeer) {
  Link link;
  std::vector<int> closed_peers;
  link.rx.set_on_peer_close(
      [&](int peer, Time) { closed_peers.push_back(peer); });
  for (std::uint64_t i = 0; i < 5; ++i) {
    link.tx.send(Packet{.seq = i, .bytes = 1000});
  }
  EXPECT_TRUE(link.tx.close());
  EXPECT_FALSE(link.tx.close());  // idempotent
  link.eng.run_until(Time::sec(2));
  ASSERT_EQ(link.delivered.size(), 5u);  // FIN itself is not a delivery
  EXPECT_TRUE(link.tx.fin_acked());
  EXPECT_TRUE(link.tx.closing());
  EXPECT_FALSE(link.tx.aborted());
  EXPECT_EQ(link.tx.acked(), 6u);  // 5 data + 1 FIN sequence
  EXPECT_TRUE(link.rx.peer_closed(link.tx.port()));
  ASSERT_EQ(closed_peers.size(), 1u);
  EXPECT_EQ(closed_peers[0], link.tx.port());
}

TEST(TcpLiteTeardown, OutOfOrderFinDoesNotClose) {
  // Hand-crafted segments from a raw port: a FIN racing ahead of missing
  // data must be discarded, not acted on. The close only happens once the
  // in-order prefix (including the retransmitted FIN) is replayed.
  sim::Engine eng;
  hw::EthernetSwitch ether{eng};
  std::vector<std::uint64_t> delivered;
  TcpLiteReceiver rx{eng, ether, Time::us(50),
                     [&](const Packet& p, Time) { delivered.push_back(p.seq); }};
  int closes = 0;
  rx.set_on_peer_close([&](int, Time) { ++closes; });
  const int raw = ether.add_port([](const hw::EthFrame&) {});
  auto inject = [&](std::uint64_t seq, bool fin) {
    auto seg = std::make_shared<TcpLiteSegment>();
    seg->seq = seq;
    seg->is_fin = fin;
    if (!fin) seg->payload = Packet{.seq = seq, .bytes = 500};
    ether.send(raw, rx.port(),
               hw::EthFrame{.bytes = fin ? 40u : 540u, .payload = seg});
  };
  // Out-of-order arrival: data seq 1, then FIN seq 2, with seq 0 missing.
  inject(1, false);
  inject(2, true);
  eng.run_until(Time::ms(10));
  EXPECT_TRUE(delivered.empty());
  EXPECT_EQ(closes, 0);
  EXPECT_FALSE(rx.peer_closed(raw));
  EXPECT_EQ(rx.discarded_out_of_order(), 2u);
  // Go-back-N retransmit replays the whole prefix in order.
  inject(0, false);
  inject(1, false);
  inject(2, true);
  eng.run_until(Time::ms(20));
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0], 0u);
  EXPECT_EQ(delivered[1], 1u);
  EXPECT_EQ(closes, 1);
  EXPECT_TRUE(rx.peer_closed(raw));
}

TEST(TcpLiteTeardown, RetransmittedFinAfterCloseIsReackedOnce) {
  // A duplicate FIN (the peer's retransmit after its ACK was lost) must be
  // re-ACKed so the sender can finish, but must not re-fire the close.
  sim::Engine eng;
  hw::EthernetSwitch ether{eng};
  TcpLiteReceiver rx{eng, ether, Time::us(50),
                     TcpLiteReceiver::Deliver{[](const Packet&, Time) {}}};
  int closes = 0;
  rx.set_on_peer_close([&](int, Time) { ++closes; });
  std::vector<std::uint64_t> acks;
  const int raw = ether.add_port([&](const hw::EthFrame& f) {
    auto seg = std::static_pointer_cast<const TcpLiteSegment>(f.payload);
    if (seg && seg->is_ack) acks.push_back(seg->seq);
  });
  auto inject_fin = [&] {
    auto seg = std::make_shared<TcpLiteSegment>();
    seg->seq = 0;
    seg->is_fin = true;
    ether.send(raw, rx.port(), hw::EthFrame{.bytes = 40, .payload = seg});
  };
  inject_fin();
  inject_fin();  // duplicate
  eng.run_until(Time::ms(10));
  EXPECT_EQ(closes, 1);
  EXPECT_EQ(rx.peers_closed(), 1u);
  ASSERT_EQ(acks.size(), 2u);  // both FINs ACKed...
  EXPECT_EQ(acks[0], 1u);
  EXPECT_EQ(acks[1], 1u);  // ...with the same cumulative next-expected
}

TEST(TcpLiteTeardown, HalfOpenOneDirectionStillFlows) {
  // Each direction is its own sender/receiver pair; closing one must not
  // disturb the other. This is the half-open state the session reaper sees
  // when a client FINs its control channel mid-stream.
  sim::Engine eng;
  hw::EthernetSwitch ether{eng};
  std::vector<std::uint64_t> fwd, back;
  TcpLiteReceiver rx_fwd{eng, ether, Time::us(50),
                         [&](const Packet& p, Time) { fwd.push_back(p.seq); }};
  TcpLiteReceiver rx_back{eng, ether, Time::us(50),
                          [&](const Packet& p, Time) { back.push_back(p.seq); }};
  TcpLiteSender tx_fwd{eng, ether, Time::us(50), rx_fwd.port()};
  TcpLiteSender tx_back{eng, ether, Time::us(50), rx_back.port()};
  tx_fwd.send(Packet{.seq = 0, .bytes = 400});
  tx_fwd.close();
  eng.run_until(Time::ms(50));
  ASSERT_TRUE(tx_fwd.fin_acked());
  ASSERT_TRUE(rx_fwd.peer_closed(tx_fwd.port()));
  // The reverse direction keeps flowing after the forward close.
  for (std::uint64_t i = 0; i < 20; ++i) {
    tx_back.send(Packet{.seq = i, .bytes = 900});
  }
  eng.run_until(Time::sec(1));
  ASSERT_EQ(back.size(), 20u);
  for (std::uint64_t i = 0; i < 20; ++i) EXPECT_EQ(back[i], i);
  EXPECT_FALSE(tx_back.closing());
  EXPECT_EQ(fwd.size(), 1u);
}

TEST(TcpLiteTeardown, SenderGivesUpAfterMaxRetxRounds) {
  // Against a vanished peer (100% loss) a bounded sender must stop instead
  // of pinning a retransmission timer forever.
  Link link{lossy(1.0, 9),
            TcpLiteSender::Params{.window = 4, .rto = Time::ms(10),
                                  .max_retx_rounds = 3}};
  std::vector<Time> aborts;
  link.tx.set_on_abort([&](Time at) { aborts.push_back(at); });
  link.tx.send(Packet{.seq = 0, .bytes = 300});
  link.tx.send(Packet{.seq = 1, .bytes = 300});
  link.tx.close();
  const Time done = link.eng.run();  // terminates: the abort stops the timer
  EXPECT_TRUE(link.tx.aborted());
  EXPECT_FALSE(link.tx.fin_acked());
  EXPECT_TRUE(link.tx.idle());  // queue dropped
  EXPECT_EQ(link.tx.acked(), 0u);
  EXPECT_EQ(link.tx.retransmissions(), 3u * 3u);  // 3 rounds x 3 segments
  ASSERT_EQ(aborts.size(), 1u);
  // 3 allowed rounds + the round that trips the bound, 10ms RTO each.
  EXPECT_GE(done, Time::ms(40));
  EXPECT_TRUE(link.delivered.empty());
}

TEST(TcpLiteDemux, TwoSendersOnePortKeepSeparateSequenceSpaces) {
  // Two clients talking to one control port: each needs its own in-order
  // sequence space. (A single shared next-expected counter deadlocks both —
  // each peer's segments look permanently out-of-order to the other's
  // cursor.)
  sim::Engine eng;
  hw::EthernetSwitch ether{eng};
  std::map<int, std::vector<std::uint64_t>> by_peer;
  TcpLiteReceiver rx{eng, ether, Time::us(50),
                     [&](const Packet& p, int peer, Time) {
                       by_peer[peer].push_back(p.seq);
                     }};
  TcpLiteSender a{eng, ether, Time::us(50), rx.port()};
  TcpLiteSender b{eng, ether, Time::us(50), rx.port()};
  for (std::uint64_t i = 0; i < 30; ++i) {
    a.send(Packet{.seq = 100 + i, .bytes = 700});
    b.send(Packet{.seq = 200 + i, .bytes = 700});
  }
  eng.run_until(Time::sec(5));
  EXPECT_EQ(rx.peer_count(), 2u);
  EXPECT_EQ(rx.delivered(), 60u);
  ASSERT_EQ(by_peer[a.port()].size(), 30u);
  ASSERT_EQ(by_peer[b.port()].size(), 30u);
  for (std::uint64_t i = 0; i < 30; ++i) {
    EXPECT_EQ(by_peer[a.port()][i], 100 + i);
    EXPECT_EQ(by_peer[b.port()][i], 200 + i);
  }
  EXPECT_TRUE(a.idle());
  EXPECT_TRUE(b.idle());
}

TEST(TcpLite, ThroughputReasonableOnCleanLink) {
  Link link{hw::EthernetParams{}, TcpLiteSender::Params{.window = 16}};
  constexpr std::uint64_t kCount = 500;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    link.tx.send(Packet{.seq = i, .bytes = 1400});
  }
  const Time done = link.eng.run();
  ASSERT_EQ(link.delivered.size(), kCount);
  const double mbps = kCount * 1400 * 8.0 / done.to_sec() / 1e6;
  // Windowed but ACK-paced: should still fill a good part of 100 Mbps.
  EXPECT_GT(mbps, 30.0);
}

}  // namespace
}  // namespace nistream::net
