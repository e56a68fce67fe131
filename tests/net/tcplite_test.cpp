// Tests for the TcpLite reliable transport over clean, lossy and corrupting
// segments, plus the switch frame loss it exists for, its RFC 6298
// retransmission timer, and owner-safe teardown.
#include "net/tcplite.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "apps/client.hpp"
#include "fault/injector.hpp"
#include "session/client.hpp"
#include "session/server.hpp"

namespace nistream::net {
namespace {

using sim::Time;

/// A switch fault injector that loses `rate` of the frames it sees.
fault::LinkFaultInjector lossy(double rate, std::uint64_t seed = 7) {
  return fault::LinkFaultInjector{{.frame_loss_rate = rate}, sim::Rng{seed}};
}

/// Hand-crafted cumulative ACK, as a peer's receiver would send it: the
/// number rides in the frame tag.
void send_ack(hw::EthernetSwitch& ether, int from, int to,
              std::uint64_t next_expected) {
  auto ack = std::make_shared<TcpLiteSegment>();
  ack->is_ack = true;
  ether.send(from, to, hw::EthFrame{.bytes = 40, .tag = next_expected,
                                    .payload = std::move(ack)});
}

std::uint64_t seq_of(const hw::EthFrame& f) {
  return std::static_pointer_cast<const TcpLiteSegment>(f.payload)->seq;
}

struct Link {
  sim::Engine eng;
  fault::LinkFaultInjector loss;
  hw::EthernetSwitch ether{eng};
  std::vector<std::uint64_t> delivered;
  TcpLiteReceiver rx;
  TcpLiteSender tx;

  explicit Link(fault::LinkFaultInjector l = lossy(0.0),
                TcpLiteSender::Params sp = {})
      : loss{l},
        rx{eng, ether, Time::us(50),
           [this](const Packet& p, Time) { delivered.push_back(p.seq); }},
        tx{eng, ether, Time::us(50), rx.port(), sp} {
    ether.set_fault(&loss);
  }
};

TEST(EthernetLoss, DropsConfiguredFraction) {
  sim::Engine eng;
  fault::LinkFaultInjector loss = lossy(0.2);
  hw::EthernetSwitch sw{eng};
  sw.set_fault(&loss);
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
  Link link{lossy(0.35, 11), TcpLiteSender::Params{.window = 4}};
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
  Link link{lossy(1.0, 5), TcpLiteSender::Params{.window = 2}};
  for (std::uint64_t i = 0; i < 10; ++i) {
    link.tx.send(Packet{.seq = i, .bytes = 100});
  }
  link.eng.run_until(Time::ms(40));  // before the first timeout
  // Nothing delivered, nothing acked, and only window-many transmissions.
  EXPECT_TRUE(link.delivered.empty());
  EXPECT_EQ(link.tx.acked(), 0u);
  EXPECT_EQ(link.ether.frames_lost(), 2u);  // exactly the window
}

TEST(TcpLite, CorruptedFramesAreDiscardedAndResent) {
  // A frame with a bad CRC never reaches the stack, segment or ACK, as a
  // corrupted datagram never reaches a UdpEndpoint; go-back-N resends.
  Link link;
  fault::LinkFaultInjector corrupt_all{{.frame_corrupt_rate = 1.0},
                                      sim::Rng{3}};
  link.ether.set_fault(&corrupt_all);
  for (std::uint64_t i = 0; i < 10; ++i) {
    link.tx.send(Packet{.seq = i, .bytes = 100});
  }
  link.eng.run_until(Time::ms(400));  // the first timeout fires at 1 s
  EXPECT_TRUE(link.delivered.empty());
  EXPECT_EQ(corrupt_all.corruptions(), 8u);  // the window's segments
  send_ack(link.ether, link.rx.port(), link.tx.port(), 10);
  link.eng.run_until(Time::ms(500));
  EXPECT_EQ(corrupt_all.corruptions(), 9u);  // and the ACK
  EXPECT_EQ(link.tx.acked(), 0u);
  EXPECT_EQ(link.tx.retransmissions(), 0u);

  fault::LinkFaultInjector clean{{.frame_corrupt_rate = 0.0}, sim::Rng{3}};
  link.ether.set_fault(&clean);
  link.eng.run_until(Time::sec(10));
  ASSERT_EQ(link.delivered.size(), 10u);  // exactly once each
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(link.delivered[i], i);
  EXPECT_EQ(link.tx.acked(), 10u);
  EXPECT_EQ(link.tx.retransmissions(), 8u);  // the window, once
  EXPECT_EQ(clean.corruptions(), 0u);
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
    if (seg && seg->is_ack) acks.push_back(f.tag);  // the ACK number
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
            TcpLiteSender::Params{.window = 4, .max_retx_rounds = 3}};
  link.tx.send(Packet{.seq = 0, .bytes = 300});
  link.tx.send(Packet{.seq = 1, .bytes = 300});
  link.tx.close();
  // 3 allowed rounds at 1, 3 and 7 s, then the backed-off 8 s timer trips
  // the bound.
  link.eng.run_until(Time::sec(15) - Time::ns(1));
  EXPECT_FALSE(link.tx.aborted());
  const Time done = link.eng.run();  // terminates: the abort stops the timer
  EXPECT_TRUE(link.tx.aborted());
  EXPECT_FALSE(link.tx.fin_acked());
  EXPECT_TRUE(link.tx.idle());  // queue dropped
  EXPECT_EQ(link.tx.acked(), 0u);
  EXPECT_EQ(link.tx.retransmissions(), 3u * 3u);  // 3 rounds x 3 segments
  EXPECT_EQ(done, Time::sec(15));
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
  Link link{lossy(0.0), TcpLiteSender::Params{.window = 16}};
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

// --- Owner-safe teardown. Each sender or receiver is heap-allocated so a
// use after free is a sanitizer error, not a read of a dead stack slot.

TEST(TcpLiteTeardown, DestroyedSenderWithUnackedSegmentNeverFiresItsTimer) {
  sim::Engine eng;
  hw::EthernetSwitch ether{eng};
  int arrivals = 0;
  const int sink = ether.add_port([&](const hw::EthFrame&) { ++arrivals; });
  auto tx = std::make_unique<TcpLiteSender>(eng, ether, Time::us(50), sink);
  tx->send(Packet{.seq = 0, .bytes = 300});
  eng.run_until(Time::ms(10));
  ASSERT_EQ(arrivals, 1);  // on the wire, never ACKed
  tx.reset();
  eng.run_until(Time::sec(5));  // well past the RTO
  EXPECT_EQ(arrivals, 1);
  EXPECT_EQ(eng.pending_events(), 0u);
}

TEST(TcpLiteTeardown, DestroyedSenderDuringStackDelaySendsNothing) {
  sim::Engine eng;
  hw::EthernetSwitch ether{eng};
  int arrivals = 0;
  const int sink = ether.add_port([&](const hw::EthFrame&) { ++arrivals; });
  auto tx = std::make_unique<TcpLiteSender>(eng, ether, Time::us(50), sink);
  tx->send(Packet{.seq = 0, .bytes = 300});
  tx->send(Packet{.seq = 1, .bytes = 300});
  tx.reset();  // both transmissions still in the sender's stack
  eng.run();
  EXPECT_EQ(arrivals, 0);
  EXPECT_EQ(ether.bytes_switched(), 0u);
  EXPECT_EQ(eng.events_executed(), 2u);  // the stack events ran, as no-ops
}

TEST(TcpLiteTeardown, AckToDestroyedSenderIsDropped) {
  sim::Engine eng;
  hw::EthernetSwitch ether{eng};
  std::vector<std::uint64_t> got;
  const int peer =
      ether.add_port([&](const hw::EthFrame& f) { got.push_back(seq_of(f)); });
  auto tx = std::make_unique<TcpLiteSender>(eng, ether, Time::us(50), peer);
  tx->send(Packet{.seq = 0, .bytes = 300});
  eng.run_until(Time::ms(10));
  ASSERT_EQ(got.size(), 1u);
  const int dead = tx->port();
  tx.reset();
  send_ack(ether, peer, dead, 1);
  eng.run();
  EXPECT_EQ(ether.frames_to_detached(), 1u);
  EXPECT_EQ(got.size(), 1u);
}

TEST(TcpLiteTeardown, DestroyedReceiverDuringStackDelayNeitherDeliversNorAcks) {
  sim::Engine eng;
  hw::EthernetSwitch ether{eng};
  int delivered = 0;
  auto rx = std::make_unique<TcpLiteReceiver>(
      eng, ether, Time::us(500),
      TcpLiteReceiver::Deliver{[&](const Packet&, Time) { ++delivered; }});
  TcpLiteSender tx{eng, ether, Time::us(50), rx->port()};
  tx.send(Packet{.seq = 0, .bytes = 300});
  // The segment lands within ~100 us and then waits out the receiver's
  // 500 us stack cost.
  eng.run_until(Time::us(300));
  ASSERT_EQ(ether.frames_in_flight(), 0u);
  ASSERT_EQ(tx.acked(), 0u);
  rx.reset();
  eng.run_until(Time::ms(10));
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(tx.acked(), 0u);
}

TEST(TcpLiteTeardown, CloseListenerWaitsForTheResentFinsAckAndMayDestroyIt) {
  // A sender with a 5 ms stack cost on a borrowed port. Its first round
  // trip takes ~10 ms, so its RTO becomes ~30 ms. Then ~27.5 ms of
  // full-size frames queue on the receiver's downlink ahead of the FIN: the
  // timer fires before the FIN's ACK is back and schedules a resend, and
  // that ACK is processed while the resend still waits out the stack cost.
  // The FIN is then acknowledged, but the resend counts from when it was
  // scheduled: the listener is told only once its ACK has been processed,
  // and destroying the sender there leaves nothing of it pending.
  sim::Engine eng;
  hw::EthernetSwitch ether{eng};
  TcpLiteReceiver rx{eng, ether, Time::us(50), TcpLiteReceiver::Deliver{}};
  const int port = ether.add_port(&hw::EthernetSwitch::parked);
  auto tx =
      std::make_unique<TcpLiteSender>(ether, port, Time::ms(5), rx.port());
  EXPECT_EQ(tx->port(), port);
  tx->send(Packet{.seq = 0, .bytes = 300});
  eng.run();
  ASSERT_GT(tx->rto(), Time::ms(30));
  ASSERT_LT(tx->rto(), Time::ms(31));

  const int flood = ether.add_port(&hw::EthernetSwitch::parked);
  const int frames = static_cast<int>(Time::ms(27.5) / ether.wire_time(1500));
  for (int i = 0; i < frames; ++i) {
    ether.send(flood, rx.port(), hw::EthFrame{.bytes = 1500});
  }
  struct Listener final : TcpLiteSender::CloseListener {
    std::unique_ptr<TcpLiteSender>* tx = nullptr;
    int told = 0;
    void on_closed() override {
      ++told;
      tx->reset();
    }
  } listener;
  listener.tx = &tx;
  ASSERT_TRUE(tx->close(&listener));
  while (listener.told == 0 && !tx->fin_acked()) ASSERT_TRUE(eng.step());
  ASSERT_EQ(listener.told, 0) << "told while the resend was still out";
  EXPECT_EQ(tx->retransmissions(), 1u);
  const Time fin_acked_at = eng.now();

  while (listener.told == 0) ASSERT_TRUE(eng.step());
  EXPECT_GT(eng.now(), fin_acked_at + Time::ms(5));  // the resend's round trip
  EXPECT_EQ(tx.get(), nullptr);
  EXPECT_EQ(eng.pending_events(), 0u);
  EXPECT_TRUE(rx.idle());
  EXPECT_EQ(rx.peers_closed(), 1u);
  EXPECT_TRUE(ether.attached(port)) << "parked again, still its owner's";
  eng.run();
  EXPECT_EQ(listener.told, 1);
}

// --- Recycled ports.

TEST(TcpLiteRecycle, NewSenderOnARecycledPortGetsAFreshSequenceSpace) {
  // a sends five segments and FINs; b then takes a's port. Without a fresh
  // sequence space b's segments 0..2 would read as duplicates of a's, and
  // a's FIN would keep the peer closed.
  sim::Engine eng;
  hw::EthernetSwitch ether{eng};
  std::vector<std::pair<int, std::uint64_t>> got;
  TcpLiteReceiver rx{eng, ether, Time::us(50),
                     [&](const Packet& p, int peer, Time) {
                       got.emplace_back(peer, p.seq);
                     }};
  auto a = std::make_unique<TcpLiteSender>(eng, ether, Time::us(50),
                                           rx.port());
  for (std::uint64_t i = 0; i < 5; ++i) {
    a->send(Packet{.seq = 100 + i, .bytes = 300});
  }
  a->close();
  eng.run();
  ASSERT_TRUE(a->fin_acked());
  const int old_port = a->port();
  EXPECT_TRUE(rx.peer_closed(old_port));
  a.reset();

  TcpLiteSender b{eng, ether, Time::us(50), rx.port()};
  ASSERT_EQ(hw::EthernetSwitch::index_of(b.port()),
            hw::EthernetSwitch::index_of(old_port));
  ASSERT_NE(b.port(), old_port);
  for (std::uint64_t i = 0; i < 3; ++i) {
    b.send(Packet{.seq = 200 + i, .bytes = 300});
  }
  eng.run();
  EXPECT_EQ(b.acked(), 3u);
  EXPECT_EQ(b.retransmissions(), 0u);
  EXPECT_EQ(rx.discarded_out_of_order(), 0u);
  EXPECT_EQ(rx.peer_count(), 1u);  // one port, one sequence space
  EXPECT_FALSE(rx.peer_closed(b.port()));
  EXPECT_FALSE(rx.peer_closed(old_port));  // that occupant's state is gone
  const std::vector<std::pair<int, std::uint64_t>> expect{
      {old_port, 100}, {old_port, 101}, {old_port, 102}, {old_port, 103},
      {old_port, 104}, {b.port(), 200},  {b.port(), 201},  {b.port(), 202}};
  EXPECT_EQ(got, expect);
}

TEST(TcpLiteRecycle, AckForTheOldOccupantNeverReachesTheNewSender) {
  // a's segment is in the receiver's stack when a goes away and b takes the
  // port; the ACK to a's address is dropped, and b's sequence space is
  // untouched by it.
  sim::Engine eng;
  hw::EthernetSwitch ether{eng};
  TcpLiteReceiver rx{eng, ether, Time::us(500),
                     TcpLiteReceiver::Deliver{[](const Packet&, Time) {}}};
  auto a = std::make_unique<TcpLiteSender>(eng, ether, Time::us(50),
                                           rx.port());
  a->send(Packet{.seq = 0, .bytes = 300});
  eng.run_until(Time::us(300));  // landed, waiting out the 500 us stack
  ASSERT_EQ(ether.frames_in_flight(), 0u);
  const int old_port = a->port();
  a.reset();
  TcpLiteSender b{eng, ether, Time::us(50), rx.port()};
  ASSERT_EQ(hw::EthernetSwitch::index_of(b.port()),
            hw::EthernetSwitch::index_of(old_port));
  eng.run_until(Time::ms(5));
  EXPECT_EQ(ether.frames_to_detached(), 1u);  // the ACK to a
  EXPECT_EQ(b.acked(), 0u);
  EXPECT_TRUE(b.idle());
}

TEST(TcpLiteRecycle, RecycledPortsGetFreshSpacesInlineAndInTheVector) {
  // a speaks first and takes the receiver's inline slot; b takes its port
  // index's vector entry. Both go away, and a2 and b2 take their ports and
  // start again at sequence 0: each needs a fresh space, in either slot.
  sim::Engine eng;
  hw::EthernetSwitch ether{eng};
  std::map<int, std::vector<std::uint64_t>> by_peer;
  TcpLiteReceiver rx{eng, ether, Time::us(50),
                     [&](const Packet& p, int peer, Time) {
                       by_peer[peer].push_back(p.seq);
                     }};
  auto a = std::make_unique<TcpLiteSender>(eng, ether, Time::us(50),
                                           rx.port());
  auto b = std::make_unique<TcpLiteSender>(eng, ether, Time::us(50),
                                           rx.port());
  for (std::uint64_t i = 0; i < 3; ++i) a->send(Packet{.seq = 100 + i});
  eng.run();
  for (std::uint64_t i = 0; i < 3; ++i) b->send(Packet{.seq = 200 + i});
  eng.run();
  const int a_port = a->port();
  const int b_port = b->port();
  b.reset();
  a.reset();  // the free list is LIFO: a's port is handed out first

  TcpLiteSender a2{eng, ether, Time::us(50), rx.port()};
  TcpLiteSender b2{eng, ether, Time::us(50), rx.port()};
  ASSERT_EQ(hw::EthernetSwitch::index_of(a2.port()),
            hw::EthernetSwitch::index_of(a_port));
  ASSERT_EQ(hw::EthernetSwitch::index_of(b2.port()),
            hw::EthernetSwitch::index_of(b_port));
  for (std::uint64_t i = 0; i < 2; ++i) {
    a2.send(Packet{.seq = 300 + i});
    b2.send(Packet{.seq = 400 + i});
  }
  eng.run();
  EXPECT_EQ(a2.acked(), 2u);
  EXPECT_EQ(b2.acked(), 2u);
  EXPECT_EQ(a2.retransmissions() + b2.retransmissions(), 0u);
  EXPECT_EQ(rx.discarded_out_of_order(), 0u);
  EXPECT_EQ(rx.delivered(), 10u);
  EXPECT_EQ(rx.peer_count(), 2u);  // two port indices
  EXPECT_EQ(by_peer[a_port], (std::vector<std::uint64_t>{100, 101, 102}));
  EXPECT_EQ(by_peer[b_port], (std::vector<std::uint64_t>{200, 201, 202}));
  EXPECT_EQ(by_peer[a2.port()], (std::vector<std::uint64_t>{300, 301}));
  EXPECT_EQ(by_peer[b2.port()], (std::vector<std::uint64_t>{400, 401}));
}

// --- Peer storage: the first peer inline, the others by port index.

TEST(TcpLitePeers, ThousandScatteredSendersEachDeliverOnceInOrder) {
  // 1,000 senders into one receiver, their port indices scattered among
  // other devices' ports. The second half is built after the first half
  // has spoken, so the peer vector grows past its first size.
  constexpr std::size_t kSenders = 1000;
  constexpr std::uint64_t kSegments = 3;
  sim::Engine eng;
  hw::EthernetSwitch ether{eng};
  std::map<int, std::vector<std::uint64_t>> by_peer;
  TcpLiteReceiver rx{eng, ether, Time::us(50),
                     [&](const Packet& p, int peer, Time) {
                       by_peer[peer].push_back(p.seq);
                     }};
  std::vector<std::unique_ptr<TcpLiteSender>> senders;
  const auto add_and_run = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t gap = senders.size() * 7 % 5; gap > 0; --gap) {
        ether.add_port([](const hw::EthFrame&) {});
      }
      senders.push_back(std::make_unique<TcpLiteSender>(
          eng, ether, Time::us(50), rx.port()));
      for (std::uint64_t k = 0; k < kSegments; ++k) {
        senders.back()->send(Packet{.seq = k, .bytes = 200});
      }
    }
    eng.run();
  };
  add_and_run(kSenders / 2);
  add_and_run(kSenders / 2);
  EXPECT_EQ(rx.peer_count(), kSenders);
  EXPECT_EQ(rx.delivered(), kSenders * kSegments);
  EXPECT_EQ(rx.discarded_out_of_order(), 0u);
  EXPECT_EQ(by_peer.size(), kSenders);
  for (const auto& tx : senders) {
    EXPECT_EQ(by_peer[tx->port()], (std::vector<std::uint64_t>{0, 1, 2}));
    EXPECT_EQ(tx->retransmissions(), 0u);
  }
}

// --- The RFC 6298 retransmission timer.

TEST(TcpLiteRto, EstimatorFollowsRfc6298) {
  RttEstimator est;
  EXPECT_FALSE(est.has_sample());
  EXPECT_EQ(est.rto(), Time::sec(1));  // §2.1, before any sample
  // §2.2: SRTT = R, RTTVAR = R/2, RTO = SRTT + 4 RTTVAR.
  est.sample(Time::ms(100));
  EXPECT_EQ(est.srtt(), Time::ms(100));
  EXPECT_EQ(est.rttvar(), Time::ms(50));
  EXPECT_EQ(est.rto(), Time::ms(300));
  // §2.3: RTTVAR = 3/4 RTTVAR + 1/4 |SRTT - R|, then SRTT = 7/8 SRTT + 1/8 R.
  est.sample(Time::ms(200));
  EXPECT_EQ(est.rttvar(), Time::us(62'500));
  EXPECT_EQ(est.srtt(), Time::us(112'500));
  EXPECT_EQ(est.rto(), Time::us(362'500));
  est.sample(Time::ms(100));
  EXPECT_EQ(est.rttvar(), Time::ms(50));
  EXPECT_EQ(est.srtt(), Time::ns(110'937'500));
  EXPECT_EQ(est.rto(), Time::ns(310'937'500));
  // A LAN round trip sits on the 20 ms floor; a huge one on the 60 s cap.
  RttEstimator lan;
  lan.sample(Time::ms(1));
  EXPECT_EQ(lan.rto(), Time::ms(20));
  RttEstimator slow;
  slow.sample(Time::sec(30));
  EXPECT_EQ(slow.rto(), Time::sec(60));
}

TEST(TcpLiteRto, SenderSamplesFromPumpToAckProcessing) {
  // The peer ACKs each segment 100 ms after it lands, so R is well above
  // the floor and the RTO is exactly SRTT + 4 RTTVAR = 3R.
  sim::Engine eng;
  hw::EthernetSwitch ether{eng};
  int peer = -1;
  int tx_port = -1;
  peer = ether.add_port([&](const hw::EthFrame& f) {
    eng.schedule_in(Time::ms(100), [&, next = seq_of(f) + 1] {
      send_ack(ether, peer, tx_port, next);
    });
  });
  TcpLiteSender tx{eng, ether, Time::us(50), peer};
  tx_port = tx.port();
  tx.send(Packet{.seq = 0, .bytes = 300});  // pump() runs at t = 0
  while (tx.acked() == 0) ASSERT_TRUE(eng.step());
  const Time r = eng.now();  // the step that processed the ACK
  EXPECT_GT(r, Time::ms(100));
  EXPECT_TRUE(tx.rtt().has_sample());
  EXPECT_EQ(tx.rtt().srtt(), r);
  EXPECT_EQ(tx.rtt().rttvar(), Time::ns(r.raw_ns() / 2));
  EXPECT_EQ(tx.rto(), r + 4 * Time::ns(r.raw_ns() / 2));
  EXPECT_EQ(tx.retransmissions(), 0u);
}

TEST(TcpLiteRto, AckOfRetransmittedSegmentGivesNoSample) {
  // The peer ignores the first transmission and ACKs the retransmission:
  // the ACK cannot tell which copy it answers, so it gives no sample (Karn),
  // and the RTO falls back from the backed-off 2 s to the initial 1 s.
  sim::Engine eng;
  hw::EthernetSwitch ether{eng};
  int peer = -1;
  int tx_port = -1;
  int arrivals = 0;
  peer = ether.add_port([&](const hw::EthFrame& f) {
    if (++arrivals >= 2) send_ack(ether, peer, tx_port, seq_of(f) + 1);
  });
  TcpLiteSender tx{eng, ether, Time::us(50), peer};
  tx_port = tx.port();
  tx.send(Packet{.seq = 0, .bytes = 300});
  eng.run_until(Time::sec(1) + Time::us(1));
  EXPECT_EQ(tx.retransmissions(), 1u);
  EXPECT_EQ(tx.rto(), Time::sec(2));
  eng.run_until(Time::sec(2));
  EXPECT_EQ(tx.acked(), 1u);
  EXPECT_FALSE(tx.rtt().has_sample());
  EXPECT_EQ(tx.rto(), Time::sec(1));
}

TEST(TcpLiteRto, SilentPeerSeesExponentialBackoffToTheCap) {
  // The client and the front door run with max_retx_rounds = 8: against a
  // peer that never answers, 8 resends at 1, 3, 7, 15, 31, 63, 123 and
  // 183 s (doubling from 1 s, capped at 60 s), then the ninth timeout gives
  // up.
  sim::Engine eng;
  hw::EthernetSwitch ether{eng};
  std::vector<Time> arrivals;
  const int sink = ether.add_port(
      [&](const hw::EthFrame&) { arrivals.push_back(eng.now()); });
  TcpLiteSender tx{eng, ether, Time::us(50), sink,
                   TcpLiteSender::Params{.window = 8, .max_retx_rounds = 8}};
  tx.send(Packet{.seq = 0, .bytes = 300});
  eng.run_until(Time::sec(243) - Time::ns(1));
  EXPECT_FALSE(tx.aborted());
  EXPECT_EQ(eng.run(), Time::sec(243));  // the ninth timeout gives up
  ASSERT_EQ(arrivals.size(), 9u);
  const double resend_s[] = {1, 3, 7, 15, 31, 63, 123, 183};
  for (std::size_t k = 0; k < 8; ++k) {
    EXPECT_EQ(arrivals[k + 1] - arrivals[0], Time::sec(resend_s[k]))
        << "resend " << k;
  }
  EXPECT_EQ(tx.retransmissions(), 8u);
  EXPECT_TRUE(tx.aborted());
}

TEST(TcpLiteRto, AckProgressCollapsesTheBackoff) {
  // The peer stays silent for three timeouts, so the RTO backs off to 8 s,
  // then ACKs: the next segment gets the un-backed-off timer back. Once a
  // promptly ACKed segment gives a sample, the timer drops to the floor and
  // a later loss is retransmitted after 20 ms, not after 16 s.
  sim::Engine eng;
  hw::EthernetSwitch ether{eng};
  int peer = -1;
  int tx_port = -1;
  std::vector<Time> arrivals;
  int ignore = 3;  // arrivals to leave unanswered
  peer = ether.add_port([&](const hw::EthFrame& f) {
    arrivals.push_back(eng.now());
    if (ignore > 0) {
      --ignore;
    } else {
      send_ack(ether, peer, tx_port, seq_of(f) + 1);
    }
  });
  TcpLiteSender tx{eng, ether, Time::us(50), peer};
  tx_port = tx.port();
  tx.send(Packet{.seq = 0, .bytes = 300});
  eng.run_until(Time::sec(7) + Time::us(1));  // timeouts at 1, 3 and 7 s
  EXPECT_EQ(tx.retransmissions(), 3u);
  EXPECT_EQ(tx.rto(), Time::sec(8));
  eng.run_until(Time::sec(8));
  ASSERT_EQ(tx.acked(), 1u);
  EXPECT_EQ(tx.rto(), Time::sec(1));  // no sample yet: the initial RTO

  tx.send(Packet{.seq = 1, .bytes = 300});
  eng.run_until(Time::sec(9));
  ASSERT_EQ(tx.acked(), 2u);
  ASSERT_TRUE(tx.rtt().has_sample());
  EXPECT_EQ(tx.rto(), Time::ms(20));

  ignore = 1;  // lose the next first transmission
  const Time sent_at = eng.now();
  const std::size_t before = arrivals.size();
  tx.send(Packet{.seq = 2, .bytes = 300});
  eng.run_until(sent_at + Time::ms(100));
  ASSERT_EQ(arrivals.size(), before + 2);
  EXPECT_EQ(arrivals[before + 1] - arrivals[before], Time::ms(20));
  EXPECT_EQ(tx.acked(), 3u);
}

TEST(TcpLiteRto, BurstIntoOnePortRetransmitsNothing) {
  // 2,000 clients each send one 179-byte request at t = 0 into one NI port.
  // The downlink drains them in ~41 ms, twice the RTO floor; no timer may
  // fire for a request that is only waiting in that queue.
  constexpr std::size_t kSenders = 2000;
  sim::Engine eng;
  hw::EthernetSwitch ether{eng};
  std::map<int, int> per_peer;
  Time last_delivery;
  TcpLiteReceiver rx{eng, ether, kNiStackCost,
                     [&](const Packet&, int peer, Time at) {
                       ++per_peer[peer];
                       last_delivery = at;
                     }};
  std::vector<std::unique_ptr<TcpLiteSender>> senders;
  senders.reserve(kSenders);
  for (std::size_t i = 0; i < kSenders; ++i) {
    senders.push_back(std::make_unique<TcpLiteSender>(eng, ether,
                                                      kHostStackCost,
                                                      rx.port()));
    senders.back()->send(Packet{.seq = i, .bytes = 179});
  }
  eng.run_until(Time::sec(5));
  EXPECT_GT(last_delivery, Time::ms(41));
  EXPECT_EQ(rx.delivered(), kSenders);
  ASSERT_EQ(per_peer.size(), kSenders);
  std::uint64_t retransmissions = 0;
  for (const auto& tx : senders) {
    retransmissions += tx->retransmissions();
    EXPECT_TRUE(tx->idle());
  }
  EXPECT_EQ(retransmissions, 0u);
  for (const auto& [peer, n] : per_peer) EXPECT_EQ(n, 1) << "peer " << peer;
}

TEST(TcpLiteSession, TenThousandClientSetupBurstAllClose) {
  // 10,000 polite RTSP clients SETUP within 10 ms against one server with
  // the storm's reaper settings. Every client must get through its script
  // and FIN its control connection; none may give up on a queued request.
  constexpr int kClients = 10'000;
  sim::Engine eng;
  hw::EthernetSwitch ether{eng};
  session::SessionServer::Config cfg;
  cfg.door.idle_timeout = Time::ms(500);
  cfg.door.reap_interval = Time::ms(125);
  session::SessionServer server{eng, ether, cfg};
  apps::MpegClient media{eng, ether};
  UdpEndpoint rtcp_sink{eng, ether, kHostStackCost,
                        [](const Packet&, Time) {}};
  // Each client borrows its config, so the configs outlive the clients.
  std::vector<session::RtspChurnClient::Config> configs;
  configs.reserve(kClients);
  std::vector<std::unique_ptr<session::RtspChurnClient>> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    session::RtspChurnClient::Config& c = configs.emplace_back();
    c.arrival = Time::us(i);
    c.frames = 4 + static_cast<std::uint64_t>(i % 8);
    c.period = Time::ms(10);
    clients.push_back(std::make_unique<session::RtspChurnClient>(
        eng, ether, server.control_port(), media, rtcp_sink.port(), c));
    clients.back()->start();
  }
  eng.run_until(Time::sec(30));
  EXPECT_EQ(server.door().control_rx().peers_closed(),
            static_cast<std::uint64_t>(kClients));
  int answered = 0;
  for (const auto& c : clients) answered += c->outcome().responded_setup;
  EXPECT_EQ(answered, kClients);
}

}  // namespace
}  // namespace nistream::net
