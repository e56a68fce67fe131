// Footprint audits for the stores a 100k-client storm fills at once: the
// engine's armed events (one arrival per client at t = 0), the switch's ports
// (two per client) and the clients' TcpLite senders; and for the scheduler
// that nibench's dwcs_shards loads with 100k streams. Each reads the live
// heap before and after filling the store, so it counts every page, vector
// and malloc header the store costs. Under sanitizers the heap shim is
// compiled out and the bounds are not asserted.
#include <gtest/gtest.h>

#include <cstdint>

#include "counting_new.hpp"
#include "dwcs/scheduler.hpp"
#include "hw/ethernet.hpp"
#include "mpeg/frame.hpp"
#include "net/tcplite.hpp"
#include "sim/engine.hpp"
#include "sim/handle_table.hpp"

namespace nistream {
namespace {

using sim::Time;

constexpr std::int64_t kPageSlots = sim::HandleTable<int>::kPageSlots;

TEST(Footprint, ArmedEventCostsAtMostNinetySixBytes) {
  // An 80-byte slot, its 4-byte generation word and an 8-byte heap pointer,
  // with the heap vector's spare capacity on top; one page of slack.
  constexpr std::int64_t kEvents = 100'000;
  sim::Engine eng;
  std::int64_t fired = 0;
  const std::int64_t before = test::heap_live_bytes();
  for (std::int64_t i = 0; i < kEvents; ++i) {
    eng.schedule_at(Time::us(static_cast<double>(i % 1000)),
                    [&fired] { ++fired; });
  }
  const std::int64_t grown = test::heap_live_bytes() - before;
  EXPECT_EQ(eng.pending_events(), static_cast<std::size_t>(kEvents));
#if NISTREAM_COUNTING_NEW
  constexpr std::int64_t kBytesPerEvent = 96;
  EXPECT_LE(grown, (kEvents + kPageSlots) * kBytesPerEvent)
      << static_cast<double>(grown) / kEvents << " bytes per armed event";
#else
  (void)grown;
#endif
  eng.run();
  EXPECT_EQ(fired, kEvents);
}

TEST(Footprint, SwitchPortCostsAtMostFortyEightBytes) {
  // A 40-byte entry and its 4-byte generation word: 2,048 ports fill two
  // pages, and the page list fits in the slack.
  constexpr int kPorts = 2 * kPageSlots;
  sim::Engine eng;
  hw::EthernetSwitch sw{eng};
  const std::int64_t before = test::heap_live_bytes();
  for (int i = 0; i < kPorts; ++i) sw.add_port([](const hw::EthFrame&) {});
  const std::int64_t grown = test::heap_live_bytes() - before;
  EXPECT_EQ(sw.port_table_size(), static_cast<std::size_t>(kPorts));
#if NISTREAM_COUNTING_NEW
  constexpr std::int64_t kBytesPerPort = 48;
  EXPECT_LE(grown, kPorts * kBytesPerPort)
      << static_cast<double>(grown) / kPorts << " bytes per port";
#else
  (void)grown;
#endif
}

TEST(Footprint, DrainedTcpLiteSenderHoldsNoHeapBlock) {
  // A storm client's control channel queues one request at a time and waits
  // for the answer, so its sender sits drained for most of its life and must
  // not keep its queue buffer meanwhile. A sender that queued a burst keeps
  // its buffer while it is open (TcpLiteAllocFree pins a steady exchange at
  // zero allocations) and gives it back once its FIN is acknowledged.
  sim::Engine eng;
  hw::EthernetSwitch ether{eng};
  const auto deliver = [](const net::Packet&, Time) {};
  // One receiver per sender: a receiver stores its first peer inline.
  net::TcpLiteReceiver warm_rx{eng, ether, Time::us(50), deliver};
  net::TcpLiteReceiver rx{eng, ether, Time::us(50), deliver};
  net::TcpLiteReceiver burst_rx{eng, ether, Time::us(50), deliver};
  net::TcpLiteSender warm{eng, ether, Time::us(50), warm_rx.port()};
  net::TcpLiteSender tx{eng, ether, Time::us(50), rx.port()};
  net::TcpLiteSender burst{eng, ether, Time::us(50), burst_rx.port()};
  // The engine's slot pages and heap, the switch's frame pages and the
  // packet box slabs are grown once, by a larger burst from another sender.
  for (std::uint64_t i = 0; i < 8; ++i) {
    warm.send(net::Packet{.seq = i, .bytes = 100});
  }
  eng.run();
  ASSERT_TRUE(warm.idle());

  const std::int64_t before = test::heap_live_bytes();
  for (std::uint64_t i = 0; i < 3; ++i) {
    tx.send(net::Packet{.seq = i, .bytes = 100});
    eng.run();
    EXPECT_EQ(tx.acked(), i + 1);
    EXPECT_EQ(test::heap_live_bytes(), before) << "after request " << i;
  }
  for (std::uint64_t i = 0; i < 4; ++i) {
    burst.send(net::Packet{.seq = i, .bytes = 100});
  }
  burst.close();
  eng.run();
  EXPECT_TRUE(burst.fin_acked());
  EXPECT_EQ(test::heap_live_bytes(), before);
}

TEST(Footprint, LoadedShardedSchedulerCostsAtMost185BytesPerStream) {
  // dwcs_shards' scheduler: 100k streams on 4 hierarchical shards, 8-frame
  // rings, one frame queued on each. A stream's ring is its 40-byte record
  // (cursors, spill pointer and the one frame in its inline slot); its
  // 88-byte state (params and stats), 32-byte view and heap entries take
  // ~138 more.
  constexpr std::size_t kStreams = 100'000;
  const std::int64_t before = test::heap_live_bytes();
  dwcs::DwcsScheduler::Config cfg;
  cfg.repr = dwcs::ReprKind::kHierarchical;
  cfg.hierarchical.shards = 4;
  cfg.ring_capacity = 8;
  dwcs::DwcsScheduler sched{cfg};
  sched.reserve_streams(kStreams);
  for (std::size_t i = 0; i < kStreams; ++i) {
    const auto id = sched.create_stream(
        {.tolerance = {static_cast<std::int64_t>(i % 3), 4},
         .period = Time::ms(i % 4 == 0 ? 40 : 33),
         .lossy = i % 10 < 7},
        Time::zero());
    ASSERT_TRUE(sched.enqueue(
        id, dwcs::FrameDescriptor{.frame_id = i,
                                  .bytes = mpeg::kPaperFrameBytes},
        Time::zero()));
  }
  const std::int64_t grown = test::heap_live_bytes() - before;
  EXPECT_EQ(sched.stream_count(), kStreams);
#if NISTREAM_COUNTING_NEW
  constexpr std::int64_t kBytesPerStream = 185;
  EXPECT_LE(grown, static_cast<std::int64_t>(kStreams) * kBytesPerStream)
      << static_cast<double>(grown) / kStreams << " bytes per stream";
#else
  (void)grown;
#endif
}

}  // namespace
}  // namespace nistream
