// Tests for the switched-Ethernet model.
#include "hw/ethernet.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "fault/injector.hpp"

namespace nistream::hw {
namespace {

struct Fixture {
  sim::Engine eng;
  EthernetSwitch sw{eng};
  std::vector<std::pair<sim::Time, EthFrame>> rx_a, rx_b;
  int a, b;

  Fixture() {
    a = sw.add_port([this](const EthFrame& f) { rx_a.emplace_back(eng.now(), f); });
    b = sw.add_port([this](const EthFrame& f) { rx_b.emplace_back(eng.now(), f); });
  }
};

TEST(Ethernet, WireTimeAt100Mbps) {
  sim::Engine eng;
  EthernetSwitch sw{eng};
  // 1462-byte payload + 38 overhead = 1500 bytes = 120 us at 100 Mbps —
  // the "half an Ethernet frame time (~120us)" yardstick in §4.2.
  EXPECT_NEAR(sw.wire_time(1462).to_us(), 120.0, 0.1);
  EXPECT_NEAR(sw.wire_time(1000).to_us(), 83.0, 0.1);
}

TEST(Ethernet, StoreAndForwardDelivery) {
  Fixture f;
  f.sw.send(f.a, f.b, EthFrame{.bytes = 1000, .tag = 7});
  f.eng.run();
  ASSERT_EQ(f.rx_b.size(), 1u);
  EXPECT_EQ(f.rx_b[0].second.tag, 7u);
  EXPECT_EQ(f.rx_b[0].second.src_port, f.a);
  // Two serializations + switch latency.
  const double expect =
      2 * f.sw.wire_time(1000).to_us() + f.sw.params().switch_latency.to_us();
  EXPECT_NEAR(f.rx_b[0].first.to_us(), expect, 0.1);
  EXPECT_TRUE(f.rx_a.empty());
}

TEST(Ethernet, UplinkQueueingBetweenFrames) {
  Fixture f;
  f.sw.send(f.a, f.b, EthFrame{.bytes = 1000, .tag = 1});
  f.sw.send(f.a, f.b, EthFrame{.bytes = 1000, .tag = 2});
  f.eng.run();
  ASSERT_EQ(f.rx_b.size(), 2u);
  const double gap = f.rx_b[1].first.to_us() - f.rx_b[0].first.to_us();
  // Back-to-back frames are spaced by one serialization time.
  EXPECT_NEAR(gap, f.sw.wire_time(1000).to_us(), 0.1);
  EXPECT_EQ(f.rx_b[0].second.tag, 1u);
  EXPECT_EQ(f.rx_b[1].second.tag, 2u);
}

TEST(Ethernet, DownlinkContentionFromTwoSenders) {
  Fixture f;
  const int c = f.sw.add_port([](const EthFrame&) {});
  // a and c both send to b at t=0; the second arrival is delayed by b's
  // downlink serialization of the first.
  f.sw.send(f.a, f.b, EthFrame{.bytes = 1000, .tag = 1});
  f.sw.send(c, f.b, EthFrame{.bytes = 1000, .tag = 2});
  f.eng.run();
  ASSERT_EQ(f.rx_b.size(), 2u);
  const double gap = f.rx_b[1].first.to_us() - f.rx_b[0].first.to_us();
  EXPECT_NEAR(gap, f.sw.wire_time(1000).to_us(), 0.1);
}

TEST(Ethernet, SeparatePortPairsDoNotInterfere) {
  Fixture f;
  std::vector<sim::Time> rx_d;
  const int c = f.sw.add_port([](const EthFrame&) {});
  const int d = f.sw.add_port([&](const EthFrame&) { rx_d.push_back(f.eng.now()); });
  f.sw.send(f.a, f.b, EthFrame{.bytes = 1000});
  f.sw.send(c, d, EthFrame{.bytes = 1000});
  f.eng.run();
  ASSERT_EQ(f.rx_b.size(), 1u);
  ASSERT_EQ(rx_d.size(), 1u);
  EXPECT_EQ(f.rx_b[0].first, rx_d[0]);  // identical, independent paths
}

TEST(Ethernet, PayloadSharedPtrSurvives) {
  Fixture f;
  auto body = std::make_shared<int>(42);
  f.sw.send(f.a, f.b, EthFrame{.bytes = 64, .payload = body});
  body.reset();
  f.eng.run();
  ASSERT_EQ(f.rx_b.size(), 1u);
  const auto got = std::static_pointer_cast<const int>(f.rx_b[0].second.payload);
  ASSERT_TRUE(got);
  EXPECT_EQ(*got, 42);
}

TEST(Ethernet, BytesSwitchedAccumulates) {
  Fixture f;
  f.sw.send(f.a, f.b, EthFrame{.bytes = 100});
  f.sw.send(f.b, f.a, EthFrame{.bytes = 200});
  f.eng.run();
  EXPECT_EQ(f.sw.bytes_switched(), 300u);
}

// ---------------------------------------------------------------------------
// Frames in flight queue on their destination port; the engine sees only each
// busy downlink's head. These pin that the order of events cannot tell.
// ---------------------------------------------------------------------------

TEST(Ethernet, TimerAtAQueuedFramesLandingInstantRunsAfterIt) {
  // Frame 2 waits behind frame 1 on b's downlink. A timer scheduled after
  // both sends, for the instant frame 2 lands, must run after that delivery,
  // as it would if each frame had its own event. Arming frame 2 under a
  // fresh sequence number when frame 1 lands would run the timer first.
  sim::Engine eng;
  EthernetSwitch sw{eng};
  std::vector<std::pair<std::uint64_t, sim::Time>> order;  // tag 0 = timer
  const int a = sw.add_port([](const EthFrame&) {});
  const int b = sw.add_port(
      [&](const EthFrame& f) { order.emplace_back(f.tag, eng.now()); });
  sw.send(a, b, EthFrame{.bytes = 1000, .tag = 1});
  sw.send(a, b, EthFrame{.bytes = 1000, .tag = 2});
  const sim::Time w = sw.wire_time(1000);
  const sim::Time lands = w + w + w + sw.params().switch_latency;
  eng.schedule_at(lands, [&] { order.emplace_back(0, eng.now()); });
  eng.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0].first, 1u);
  EXPECT_EQ(order[1], (std::pair<std::uint64_t, sim::Time>{2, lands}));
  EXPECT_EQ(order[2], (std::pair<std::uint64_t, sim::Time>{0, lands}));
}

TEST(Ethernet, ThreeSendersIntoOnePortDeliverInSendOrder) {
  // The downlink serializes in send order even when a later, shorter frame
  // reaches the switch first; each lands one serialization after the last.
  Fixture f;
  const int c = f.sw.add_port([](const EthFrame&) {});
  const int d = f.sw.add_port([](const EthFrame&) {});
  f.sw.send(f.a, f.b, EthFrame{.bytes = 1000, .tag = 1});
  f.sw.send(c, f.b, EthFrame{.bytes = 400, .tag = 2});
  f.sw.send(d, f.b, EthFrame{.bytes = 1400, .tag = 3});
  f.eng.run();
  const sim::Time latency = f.sw.params().switch_latency;
  const sim::Time w1 = f.sw.wire_time(1000);
  const sim::Time t1 = w1 + latency + w1;
  const sim::Time t2 = std::max(f.sw.wire_time(400) + latency, t1) +
                       f.sw.wire_time(400);
  const sim::Time t3 = std::max(f.sw.wire_time(1400) + latency, t2) +
                       f.sw.wire_time(1400);
  ASSERT_EQ(f.rx_b.size(), 3u);
  EXPECT_EQ(f.rx_b[0].second.tag, 1u);
  EXPECT_EQ(f.rx_b[1].second.tag, 2u);
  EXPECT_EQ(f.rx_b[2].second.tag, 3u);
  EXPECT_EQ(f.rx_b[0].first, t1);
  EXPECT_EQ(f.rx_b[1].first, t2);
  EXPECT_EQ(f.rx_b[2].first, t3);
  EXPECT_EQ(f.rx_b[1].second.src_port, c);
  EXPECT_EQ(f.rx_b[2].second.src_port, d);
}

TEST(Ethernet, DroppedFramesNeverEnterTheQueue) {
  // Dropped frames leave the downlink idle, so a later frame from another
  // port lands as if they had never been sent.
  sim::Engine eng;
  EthernetSwitch sw{eng};
  fault::LinkFaultInjector drop_all{
      fault::LinkFaultPolicy{.frame_loss_rate = 1.0}, sim::Rng{1}};
  std::vector<sim::Time> got;
  const int a = sw.add_port([](const EthFrame&) {});
  const int b = sw.add_port([&](const EthFrame&) { got.push_back(eng.now()); });
  const int c = sw.add_port([](const EthFrame&) {});
  sw.set_fault(&drop_all);
  for (int i = 0; i < 10; ++i) sw.send(a, b, EthFrame{.bytes = 1000});
  EXPECT_EQ(drop_all.drops(), 10u);
  EXPECT_EQ(sw.frames_lost(), 10u);
  EXPECT_EQ(sw.frames_in_flight(), 0u);
  EXPECT_EQ(eng.pending_events(), 0u);
  sw.set_fault(nullptr);
  sw.send(c, b, EthFrame{.bytes = 1000});
  EXPECT_EQ(sw.frames_in_flight(), 1u);
  eng.run();
  const sim::Time w = sw.wire_time(1000);
  EXPECT_EQ(got, (std::vector<sim::Time>{w + sw.params().switch_latency + w}));
}

TEST(Ethernet, QueuedFramesHoldOneEngineEventPerBusyDownlink) {
  Fixture f;
  for (std::uint64_t i = 0; i < 100; ++i) {
    f.sw.send(f.a, f.b, EthFrame{.bytes = 1000, .tag = i});
    f.sw.send(f.b, f.a, EthFrame{.bytes = 500, .tag = i});
  }
  EXPECT_EQ(f.sw.frames_in_flight(), 200u);
  EXPECT_EQ(f.eng.pending_events(), 2u);
  f.eng.run();
  EXPECT_EQ(f.sw.frames_in_flight(), 0u);
  ASSERT_EQ(f.rx_a.size(), 100u);
  ASSERT_EQ(f.rx_b.size(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(f.rx_a[i].second.tag, i);
    EXPECT_EQ(f.rx_b[i].second.tag, i);
  }
  EXPECT_EQ(f.eng.events_executed(), 200u);  // still one event per delivery
}

TEST(Ethernet, DetachedPortDropsQueuedAndLaterFrames) {
  Fixture f;
  for (std::uint64_t i = 0; i < 3; ++i) {
    f.sw.send(f.a, f.b, EthFrame{.bytes = 1000, .tag = i});
  }
  f.eng.step();  // the first frame lands
  ASSERT_EQ(f.rx_b.size(), 1u);
  f.sw.detach(f.b);
  EXPECT_FALSE(f.sw.attached(f.b));
  EXPECT_TRUE(f.sw.attached(f.a));
  f.sw.send(f.a, f.b, EthFrame{.bytes = 1000, .tag = 3});
  f.sw.send(f.b, f.a, EthFrame{.bytes = 500, .tag = 4});  // uplink still works
  f.eng.run();
  EXPECT_EQ(f.rx_b.size(), 1u);
  EXPECT_EQ(f.sw.frames_to_detached(), 3u);  // two queued, one sent later
  EXPECT_EQ(f.sw.frames_in_flight(), 0u);
  ASSERT_EQ(f.rx_a.size(), 1u);
  EXPECT_EQ(f.rx_a[0].second.tag, 4u);
  // Queued frames keep their delivery events, so the rest of the run keeps
  // its event order; a frame sent after the detach never enters the queue.
  EXPECT_EQ(f.eng.events_executed(), 4u);
}

TEST(Ethernet, RebindKeepsTheAddressAndHandsQueuedFramesToTheNewReceiver) {
  Fixture f;
  for (std::uint64_t i = 0; i < 3; ++i) {
    f.sw.send(f.a, f.b, EthFrame{.bytes = 1000, .tag = i});
  }
  f.eng.step();  // the first frame lands on b's first receiver
  ASSERT_EQ(f.rx_b.size(), 1u);
  std::vector<std::uint64_t> tags;
  f.sw.rebind(f.b, [&tags](const EthFrame& fr) { tags.push_back(fr.tag); });
  f.eng.step();  // the second lands on the new one
  ASSERT_EQ(tags.size(), 1u);
  EXPECT_EQ(tags[0], 1u);
  f.sw.rebind(f.b, &EthernetSwitch::parked);
  f.eng.run();  // the third lands on the parked port and is dropped
  EXPECT_EQ(f.rx_b.size(), 1u);
  EXPECT_EQ(tags.size(), 1u);
  EXPECT_TRUE(f.sw.attached(f.b));
  EXPECT_EQ(f.sw.frames_to_detached(), 0u);
  // A parked port is still its owner's: detaching it frees it for reuse.
  f.sw.detach(f.b);
  EXPECT_EQ(EthernetSwitch::index_of(f.sw.add_port(&EthernetSwitch::parked)),
            EthernetSwitch::index_of(f.b));
}

TEST(Ethernet, OneWordReceiverMayRebindItsOwnPortWhileItRuns) {
  // A storm client's first-frame thunk: a receiver of one word, stored in
  // the port entry, hands the port to a new receiver from inside its own
  // call and then gives that receiver the frame. The rebind overwrites the
  // running receiver's word, so the thunk reads its capture first, and the
  // switch must not touch the entry once the call returns.
  struct Target {
    EthernetSwitch& sw;
    int port;
    int thunk_calls = 0;
    std::vector<std::uint64_t> tags;  // every frame the new receiver got
    void first(const EthFrame& fr) {
      ++thunk_calls;
      sw.rebind(port, [this](const EthFrame& g) { tags.push_back(g.tag); });
      tags.push_back(fr.tag);
    }
  };
  Fixture f;
  Target target{f.sw, f.b};
  const auto thunk = [t = &target](const EthFrame& fr) { t->first(fr); };
  static_assert(sizeof(thunk) == sizeof(void*));
  f.sw.rebind(f.b, thunk);
  for (std::uint64_t i = 0; i < 3; ++i) {
    f.sw.send(f.a, f.b, EthFrame{.bytes = 1000, .tag = i});
  }
  f.eng.step();  // the first frame lands on the thunk
  EXPECT_EQ(target.thunk_calls, 1);
  EXPECT_EQ(target.tags, (std::vector<std::uint64_t>{0}));
  f.eng.run();  // the queued frames land on the new receiver
  f.sw.send(f.a, f.b, EthFrame{.bytes = 1000, .tag = 3});
  f.eng.run();  // and so does a frame sent after the rebind
  EXPECT_EQ(target.thunk_calls, 1);
  EXPECT_EQ(target.tags, (std::vector<std::uint64_t>{0, 1, 2, 3}));
  EXPECT_TRUE(f.rx_b.empty());
  EXPECT_EQ(f.sw.frames_to_detached(), 0u);
}

// --- Port recycling.

TEST(EthernetRecycle, DetachedPortIsReusedOnceItsDownlinkDrains) {
  Fixture f;
  f.sw.send(f.a, f.b, EthFrame{.bytes = 1000, .tag = 1});
  f.sw.detach(f.b);  // one frame still queued for b
  const int c = f.sw.add_port([](const EthFrame&) {});
  EXPECT_NE(EthernetSwitch::index_of(c), EthernetSwitch::index_of(f.b));
  EXPECT_EQ(f.sw.port_table_size(), 3u);
  f.eng.run();  // the queued frame lands on the detached port and is dropped
  EXPECT_EQ(f.sw.frames_to_detached(), 1u);
  const int d = f.sw.add_port([](const EthFrame&) {});
  EXPECT_EQ(EthernetSwitch::index_of(d), EthernetSwitch::index_of(f.b));
  EXPECT_EQ(EthernetSwitch::generation_of(d), 1u);
  EXPECT_NE(d, f.b);
  EXPECT_TRUE(f.sw.attached(d));
  EXPECT_FALSE(f.sw.attached(f.b));
  EXPECT_EQ(f.sw.port_table_size(), 3u);
}

TEST(EthernetRecycle, FrameToAnOldGenerationNeverReachesTheNewOccupant) {
  Fixture f;
  f.sw.detach(f.b);
  std::vector<std::uint64_t> got;
  const int c =
      f.sw.add_port([&got](const EthFrame& fr) { got.push_back(fr.tag); });
  ASSERT_EQ(EthernetSwitch::index_of(c), EthernetSwitch::index_of(f.b));
  f.sw.send(f.a, f.b, EthFrame{.bytes = 1000, .tag = 1});  // the old address
  f.sw.send(f.a, c, EthFrame{.bytes = 1000, .tag = 2});
  f.eng.run();
  EXPECT_EQ(got, std::vector<std::uint64_t>{2});
  EXPECT_TRUE(f.rx_b.empty());
  EXPECT_EQ(f.sw.frames_to_detached(), 1u);
}

TEST(EthernetRecycle, QueuedFrameOfTheOldOccupantIsDroppedAfterReuse) {
  // b detaches with a frame queued; the port is reused only after that
  // frame lands, so the drop happens before the new occupant can see it.
  Fixture f;
  f.sw.send(f.a, f.b, EthFrame{.bytes = 1000, .tag = 1});
  f.sw.detach(f.b);
  f.eng.run();
  std::uint64_t got = 0;
  const int c = f.sw.add_port([&got](const EthFrame&) { ++got; });
  ASSERT_EQ(EthernetSwitch::index_of(c), EthernetSwitch::index_of(f.b));
  f.eng.run();
  EXPECT_EQ(got, 0u);
  EXPECT_TRUE(f.rx_b.empty());
  EXPECT_EQ(f.sw.frames_to_detached(), 1u);
}

TEST(EthernetRecycle, RecycledPortStartsWithFreshLinkTimes) {
  Fixture f;
  // b fills its uplink for ~8 ms, then goes away; its port drains at once.
  for (std::uint64_t i = 0; i < 100; ++i) {
    f.sw.send(f.b, f.a, EthFrame{.bytes = 1000, .tag = i});
  }
  f.sw.detach(f.b);
  const int c = f.sw.add_port([](const EthFrame&) {});
  ASSERT_EQ(EthernetSwitch::index_of(c), EthernetSwitch::index_of(f.b));
  std::vector<sim::Time> got;
  const int d = f.sw.add_port(
      [&got, &f](const EthFrame&) { got.push_back(f.eng.now()); });
  f.sw.send(c, d, EthFrame{.bytes = 1000});
  f.eng.run();
  const sim::Time w = f.sw.wire_time(1000);
  EXPECT_EQ(got, (std::vector<sim::Time>{w + f.sw.params().switch_latency + w}));
}

TEST(EthernetRecycle, PortIsRetiredWhenItsGenerationsRunOut) {
  // An address holds 31 - kIndexBits generation bits, so the port's last
  // occupant is generation 2^(31 - kIndexBits) - 1; after it the port is
  // never handed out again, and no address can ever name two occupants.
  sim::Engine eng;
  EthernetSwitch sw{eng};
  constexpr std::uint32_t kGenerations = 1u
                                         << (31 - EthernetSwitch::kIndexBits);
  int port = -1;
  for (std::uint32_t g = 0; g < kGenerations; ++g) {
    port = sw.add_port([](const EthFrame&) {});
    ASSERT_EQ(EthernetSwitch::index_of(port), 0u);
    ASSERT_EQ(EthernetSwitch::generation_of(port), g);
    sw.detach(port);
  }
  EXPECT_GT(port, 0);  // the last address is still a non-negative int
  const int next = sw.add_port([](const EthFrame&) {});
  EXPECT_EQ(EthernetSwitch::index_of(next), 1u);
  EXPECT_EQ(sw.port_table_size(), 2u);
}

TEST(Ethernet, ReceiverOfAnyCaptureIsCalledCopiedAndFreed) {
  // A receiver is two words. One that fits a pointer rides in the port
  // entry; a bigger one (here a shared_ptr and an int) lives in a box the
  // receiver owns, copied with it and freed when its port is detached.
  static_assert(sizeof(EthernetSwitch::Receiver) == 2 * sizeof(void*));
  sim::Engine eng;
  EthernetSwitch sw{eng};
  auto hits = std::make_shared<int>(0);
  const int weight = 10;
  EthernetSwitch::Receiver big = [hits, weight](const EthFrame& f) {
    *hits += weight * static_cast<int>(f.tag);
  };
  int small_hits = 0;
  const int a = sw.add_port(big);  // a copy: its own box
  const int b = sw.add_port(std::move(big));
  const int c = sw.add_port([&small_hits](const EthFrame&) { ++small_hits; });
  const int src = sw.add_port(nullptr);
  EXPECT_FALSE(sw.attached(src)) << "an empty receiver attaches nothing";
  EXPECT_EQ(hits.use_count(), 3) << "the two ports hold a box each";
  sw.send(src, a, EthFrame{.bytes = 100, .tag = 1});
  sw.send(src, b, EthFrame{.bytes = 100, .tag = 2});
  sw.send(src, c, EthFrame{.bytes = 100, .tag = 3});
  eng.run();
  EXPECT_EQ(*hits, 30);
  EXPECT_EQ(small_hits, 1);
  sw.detach(a);
  sw.detach(b);
  EXPECT_EQ(hits.use_count(), 1) << "detaching freed both boxes";
}

}  // namespace
}  // namespace nistream::hw
