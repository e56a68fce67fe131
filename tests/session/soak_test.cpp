// Bounded state under churn: waves of RTSP clients against one long-lived
// SessionServer. Each wave's clients are destroyed once their scripts are
// done and the next wave takes their switch ports, so the server's stores
// must track the clients alive now, not every client it has served: the
// switch's port table, the engine's slot table, the control receiver's peer
// table and the front door's connection and pump tables stay at their size
// after the first wave, and no more than one wave's connections are open.
// Also here: a client on a recycled port closes the connection of the
// client that held the port before it.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "apps/client.hpp"
#include "session/client.hpp"
#include "session/server.hpp"

namespace nistream::session {
namespace {

using sim::Time;

struct Rig {
  sim::Engine eng;
  hw::EthernetSwitch ether{eng};
  SessionServer server{eng, ether, config()};
  apps::MpegClient media{eng, ether};
  net::UdpEndpoint rtcp_sink{eng, ether, net::kHostStackCost,
                             [](const net::Packet&, Time) {}};

  static SessionServer::Config config() {
    SessionServer::Config cfg;
    cfg.door.idle_timeout = Time::ms(300);
    cfg.door.reap_interval = Time::ms(100);
    return cfg;
  }

  /// A client on `c`, which the rig keeps for the client to borrow.
  std::unique_ptr<RtspChurnClient> client(RtspChurnClient::Config c) {
    return std::make_unique<RtspChurnClient>(
        eng, ether, server.control_port(), media, rtcp_sink.port(),
        configs.emplace_back(std::move(c)));
  }

  std::deque<RtspChurnClient::Config> configs;  // no element ever moves
};

/// The sizes that must not grow from one wave to the next.
struct Footprint {
  std::size_t ports = 0;
  std::size_t slab = 0;
  std::size_t peers = 0;
  std::size_t conns = 0;
  std::size_t pumps = 0;
};

TEST(SessionSoak, TenWavesOfPoliteAndVanishingClientsLeaveStateFlat) {
  constexpr int kWaves = 10;
  constexpr int kClients = 40;
  const Time wave_length = Time::sec(2);
  Rig rig;
  Footprint first;
  for (int wave = 0; wave < kWaves; ++wave) {
    const Time start = wave_length * wave;
    std::vector<std::unique_ptr<RtspChurnClient>> clients;
    for (int i = 0; i < kClients; ++i) {
      clients.push_back(rig.client(RtspChurnClient::Config{
          .behavior = i % 4 == 3 ? RtspChurnClient::Behavior::kVanish
                                 : RtspChurnClient::Behavior::kPolite,
          .arrival = start + Time::ms(i) - rig.eng.now(),
          .frames = 5,
          .period = Time::ms(10),
          .drain_slack = Time::ms(100)}));  // TEARDOWN before the reaper
      clients.back()->start();
    }
    rig.eng.run_until(start + wave_length);

    const RtspFrontDoor& door = rig.server.door();
    for (const auto& c : clients) {
      ASSERT_TRUE(c->outcome().completed) << "wave " << wave;
      ASSERT_TRUE(c->outcome().admitted) << "wave " << wave;
    }
    EXPECT_EQ(door.live_sessions(), 0u) << "wave " << wave;
    EXPECT_EQ(door.live_pumps(), 0u) << "wave " << wave;
    EXPECT_LE(door.connections(), static_cast<std::size_t>(kClients))
        << "wave " << wave;
    EXPECT_EQ(rig.server.admission().admitted(), 0u) << "wave " << wave;
    const Footprint now{.ports = rig.ether.port_table_size(),
                        .slab = rig.eng.slab_size(),
                        .peers = door.control_rx().peer_count(),
                        .conns = door.connection_table_size(),
                        .pumps = door.pump_table_size()};
    if (wave == 0) {
      first = now;
      EXPECT_EQ(first.peers, static_cast<std::size_t>(kClients));
    }
    EXPECT_EQ(now.ports, first.ports) << "wave " << wave;
    EXPECT_EQ(now.slab, first.slab) << "wave " << wave;
    EXPECT_EQ(now.peers, first.peers) << "wave " << wave;
    EXPECT_EQ(now.conns, first.conns) << "wave " << wave;
    EXPECT_EQ(now.pumps, first.pumps) << "wave " << wave;
    // Last built, first destroyed: each port goes back on the free list in
    // the order the next wave asks for ports, so client i reuses the ports
    // of the previous wave's client i.
    while (!clients.empty()) clients.pop_back();
  }
  const auto& st = rig.server.door().stats();
  constexpr std::uint64_t kServed = kWaves * kClients;
  EXPECT_EQ(st.setups_ok, kServed);
  EXPECT_EQ(st.teardowns, kServed * 3 / 4);
  EXPECT_EQ(st.reaped_idle, kServed / 4);  // the vanished quarter
  EXPECT_EQ(st.post_play_admission_violations, 0u);
}

TEST(SessionSoak, ClientOnARecycledPortClosesThePreviousClientsConnection) {
  Rig rig;
  // a plays a long stream and vanishes without a FIN, and is then
  // destroyed; b is built next and takes a's ports.
  auto a = rig.client({.behavior = RtspChurnClient::Behavior::kVanish,
                       .frames = 1000,
                       .period = Time::ms(10)});
  a->start();
  rig.eng.run_until(Time::ms(200));
  ASSERT_TRUE(a->outcome().admitted);
  const RtspFrontDoor& door = rig.server.door();
  ASSERT_EQ(door.live_sessions(), 1u);
  a.reset();
  auto b = rig.client({.arrival = Time::zero(),
                       .frames = 5,
                       .period = Time::ms(10),
                       .drain_slack = Time::ms(100)});
  b->start();
  rig.eng.run_until(Time::ms(250));
  // b's SETUP came from a newer occupant of a's control port: a's
  // connection closed as its FIN would have, releasing a's session.
  EXPECT_EQ(door.stats().conn_closed, 1u);
  EXPECT_EQ(door.live_sessions(), 1u);
  EXPECT_EQ(door.connections(), 1u);
  EXPECT_EQ(door.control_rx().peer_count(), 1u);
  rig.eng.run_until(Time::sec(2));
  EXPECT_TRUE(b->outcome().completed);
  EXPECT_TRUE(b->outcome().admitted);
  EXPECT_EQ(b->outcome().cseq_errors, 0u);
  EXPECT_EQ(door.stats().teardowns, 1u);
  EXPECT_EQ(door.live_sessions(), 0u);
  EXPECT_EQ(rig.server.admission().admitted(), 0u);
}

}  // namespace
}  // namespace nistream::session
