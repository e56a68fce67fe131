// Live-heap audits of the session plane's clients.
//
// Steady PLAY: sixteen RTSP sessions stream at 30 fps
// through a SessionServer into one MpegClient, and between two instants of
// steady play the live heap must grow by less than one byte per frame the
// client received. Every per-frame structure on the way (path stages, the
// DWCS ring, dispatch, the wire, the client's meters, the window monitor)
// must hold state sized by its window or its sample count, not by the frames
// seen. A per-frame log fails this by a wide margin: the per-stream frame
// counts at the two instants differ by more than 2×, so any vector that
// holds an entry per frame reallocates in between.
//
// Waiting on SETUP: a storm's clients spend most of their lives waiting for
// their SETUP answer, so a waiting client must hold only its record and its
// live block's transport, with no answer path, coroutine frame or other
// script state beside them. The record holds no config bytes: it borrows
// its caller's config.
//
// This binary replaces ::operator new with the counting shim; under ASan or
// TSan the shim is compiled out and the test runs without the heap check.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "apps/client.hpp"
#include "counting_new.hpp"
#include "net/tcplite.hpp"
#include "session/client.hpp"
#include "session/server.hpp"

namespace nistream::session {
namespace {

using sim::Time;

TEST(LiveHeap, SteadyPlayHoldsNothingPerFrame) {
  constexpr int kSessions = 16;
  sim::Engine eng;
  hw::EthernetSwitch ether{eng};
  SessionServer server{eng, ether, SessionServer::Config{}};
  apps::MpegClient media{eng, ether};
  net::UdpEndpoint rtcp_sink{eng, ether, net::kHostStackCost,
                             [](const net::Packet&, Time) {}};
  std::vector<RtspChurnClient::Config> configs;
  for (int i = 0; i < kSessions; ++i) {
    configs.push_back({.arrival = Time::sec(3) + Time::ms(i),
                       .frames = 900,
                       .period = Time::us(33'333)});
  }
  std::vector<std::unique_ptr<RtspChurnClient>> clients;
  for (const auto& config : configs) {
    clients.push_back(std::make_unique<RtspChurnClient>(
        eng, ether, server.control_port(), media, rtcp_sink.port(), config));
    clients.back()->start();
  }

  // Sessions PLAY from t ≈ 3 s. By 9 s every window-sized buffer (the rate
  // meter holds a 2 s window) has reached its capacity. Both instants lie
  // in one capacity bracket of the client's bandwidth series, which gains a
  // point every 500 ms of run time (18 and 32 points, capacity 32): that
  // series grows with run length, about 1 B per frame at 30 fps, and is not
  // what this audit looks for.
  eng.run_until(Time::sec(9));
  const std::uint64_t frames_before = media.total_frames();
  const std::int64_t live_before = test::heap_live_bytes();
  eng.run_until(Time::sec(16));
  const std::int64_t live_after = test::heap_live_bytes();
  const std::uint64_t frames_after = media.total_frames();

  for (int i = 0; i < kSessions; ++i) {
    ASSERT_TRUE(clients[static_cast<std::size_t>(i)]->outcome().admitted)
        << "session " << i;
  }
  ASSERT_GT(frames_before, 0u);
  // Per-stream counts more than double, so every per-frame vector of the
  // parent reallocated at least once between the instants.
  ASSERT_GT(frames_after, 2 * frames_before);
  const std::uint64_t frames = frames_after - frames_before;
#if NISTREAM_COUNTING_NEW
  EXPECT_LT(live_after - live_before, static_cast<std::int64_t>(frames))
      << "live heap grew " << live_after - live_before << " B over " << frames
      << " frames delivered";
#else
  (void)live_before;
  (void)live_after;
  (void)frames;
#endif
}

TEST(LiveHeap, ClientWaitingOnItsSetupHoldsOnlyItsLiveBlock) {
  // 2,048 clients arrive 100 us apart and send SETUP to a control port that
  // acknowledges every segment and never answers. With the switch's port
  // pages grown first, building the records from the test's own configs
  // grows the live heap by the records alone: they borrow their configs.
  // The engine's slots, the pools, the switch's frame pages and the control
  // receiver's peer table are grown before the audit too, so what the live
  // heap gains after the records is what the waiting clients hold.
  constexpr int kClients = 2048;
  sim::Engine eng;
  hw::EthernetSwitch ether{eng};
  net::TcpLiteReceiver control{eng, ether, net::kNiStackCost,
                               net::TcpLiteReceiver::DeliverFrom{}};
  apps::MpegClient media{eng, ether};
  net::UdpEndpoint rtcp_sink{eng, ether, net::kHostStackCost,
                             [](const net::Packet&, Time) {}};
  for (int i = 0; i < 2 * kClients; ++i) {
    eng.schedule_at(Time::zero(), [] {});
  }
  eng.run();
  // Grow the switch's port pages. The ports are detached last first, so
  // client i gets the port indices it would get on a fresh switch.
  {
    std::vector<int> ports(2 * kClients);
    for (int& port : ports) port = ether.add_port(&hw::EthernetSwitch::parked);
    for (auto it = ports.rbegin(); it != ports.rend(); ++it) ether.detach(*it);
  }
  std::vector<RtspChurnClient::Config> configs;
  configs.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    configs.push_back({.arrival = Time::us(100.0 * (i + 1))});
  }
  std::vector<std::unique_ptr<RtspChurnClient>> clients;
  clients.reserve(kClients);
  const std::uint64_t allocs = test::heap_allocs();
  const std::int64_t unbuilt = test::heap_live_bytes();
  for (const auto& config : configs) {
    clients.push_back(std::make_unique<RtspChurnClient>(
        eng, ether, control.port(), media, rtcp_sink.port(), config));
  }
  const std::uint64_t record_blocks = test::heap_allocs() - allocs;
  const std::int64_t records = test::heap_live_bytes() - unbuilt;
  // Two senders on ports past every client's: the second makes the control
  // receiver size its peer table to the whole port table.
  net::TcpLiteSender warm_a{eng, ether, net::kHostStackCost, control.port()};
  net::TcpLiteSender warm_b{eng, ether, net::kHostStackCost, control.port()};
  warm_a.send(net::Packet{.bytes = 200});
  warm_b.send(net::Packet{.bytes = 200});
  eng.run();
  ASSERT_EQ(control.delivered(), 2u);

  const std::int64_t before = test::heap_live_bytes();
  for (const auto& client : clients) client->start();
  eng.run();  // every SETUP sent and acknowledged; no answer comes
  const std::int64_t grown = test::heap_live_bytes() - before;

  EXPECT_EQ(control.delivered(), 2u + kClients);
  for (const auto& client : clients) {
    ASSERT_FALSE(client->outcome().responded_setup);
  }
#if NISTREAM_COUNTING_NEW
  // Each record is one block of 88 usable bytes (sizeof(RtspChurnClient))
  // and nothing beside it: the configs stay in the test's vector. In a
  // fresh process it reads exactly 88 bytes per record. After the test
  // above, the allocator hands a few records a chunk one 16-byte step
  // larger, so the bound allows that step; a copy of the config would add
  // 112 bytes per record.
  constexpr std::int64_t kRecordBytes = 88;
  EXPECT_EQ(record_blocks, static_cast<std::uint64_t>(kClients));
  EXPECT_LT(records, kClients * (kRecordBytes + 16))
      << static_cast<double>(records) / kClients << " bytes per record";
  // Measured: 200 bytes per client, its live block's transport (the
  // sender, the send time, the CSeq and the waiting flag) and nothing else.
  // The bound leaves 8 bytes per client, far less than a receiver (104
  // bytes), so a client that builds its answer path before an answer
  // lands fails it.
  constexpr std::int64_t kBytesPerClient = 208;
  EXPECT_LE(grown, kClients * kBytesPerClient)
      << static_cast<double>(grown) / kClients << " bytes per waiting client";
#else
  (void)record_blocks;
  (void)records;
  (void)grown;
#endif
}

}  // namespace
}  // namespace nistream::session
