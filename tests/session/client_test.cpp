// session::RtspChurnClient on its own, against a bare control server that
// answers only when a test tells it to: the client's footprint (object size,
// nothing made before its arrival, 128-byte coroutine frames), its one
// outstanding answer, and owner-safe destruction before its arrival.
#include "session/client.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/client.hpp"
#include "counting_new.hpp"
#include "net/tcplite.hpp"
#include "net/udp.hpp"
#include "session/rtsp.hpp"
#include "sim/coro.hpp"

namespace nistream::session {
namespace {

using sim::Time;

constexpr std::uint64_t kSession = 0x0000000100000001;
constexpr dwcs::StreamId kStream = 7;

/// A control server for one client. It records each request and answers
/// only when told, and it runs no coroutine, so every coroutine frame a
/// test sees is the client's.
struct Server {
  sim::Engine& eng;
  hw::EthernetSwitch& ether;
  net::TcpLiteReceiver rx;
  std::unique_ptr<net::TcpLiteSender> tx;
  MessageBuffer buf;
  std::vector<RtspRequest> requests;

  Server(sim::Engine& eng_, hw::EthernetSwitch& ether_)
      : eng{eng_}, ether{ether_},
        rx{eng_, ether_, net::kNiStackCost,
           net::TcpLiteReceiver::DeliverFrom{
               [this](const net::Packet& p, int, Time) { on_bytes(p); }}} {}

  void on_bytes(const net::Packet& p) {
    buf.append(*static_cast<const std::string*>(p.body.get()));
    while (auto msg = buf.next()) {
      const auto req = parse_request(*msg);
      ASSERT_TRUE(req.has_value());
      requests.push_back(*req);
    }
  }

  /// Send the client an answer under CSeq `cseq`, whether or not a request
  /// waits for it.
  void answer(std::uint64_t cseq, int status = 200) {
    if (!tx) {
      tx = std::make_unique<net::TcpLiteSender>(
          eng, ether, net::kNiStackCost, requests.at(0).reply_port);
    }
    auto text = std::make_shared<std::string>(
        format_response(RtspResponse{.status = status,
                                     .cseq = cseq,
                                     .session_id = kSession,
                                     .stream = kStream,
                                     .has_stream = true}));
    net::Packet pkt;
    pkt.bytes = static_cast<std::uint32_t>(text->size());
    pkt.body = std::move(text);
    tx->send(pkt);
  }
};

struct Rig {
  sim::Engine eng;
  hw::EthernetSwitch ether{eng};
  Server server{eng, ether};
  apps::MpegClient media{eng, ether};
  net::UdpEndpoint rtcp_sink{eng, ether, net::kHostStackCost,
                             [](const net::Packet&, Time) {}};

  Rig() {
    // Give the engine's slab the slots a client's start() takes, so an
    // allocation audit sees only the client.
    for (int i = 0; i < 8; ++i) eng.schedule_at(Time::zero(), [] {});
    eng.run();
  }

  std::unique_ptr<RtspChurnClient> client(RtspChurnClient::Config c) {
    return std::make_unique<RtspChurnClient>(
        eng, ether, server.rx.port(), media, rtcp_sink.port(), c);
  }
};

/// A polite client with 110 ms of media (one 10 ms frame plus 100 ms of
/// slack) between its PLAY answer and its TEARDOWN.
RtspChurnClient::Config polite(Time arrival) {
  return {.arrival = arrival,
          .frames = 1,
          .period = Time::ms(10),
          .drain_slack = Time::ms(100)};
}

std::uint64_t frames_made() { return sim::coro_pool_stats().frames; }

TEST(ChurnClient, ObjectStaysLean) {
  // 100k clients live through a storm: the endpoints, the config, three
  // fields of one answer and a coroutine handle; no mailbox, no engine
  // reference, and no service-port state in the receiver.
  EXPECT_LE(sizeof(RtspChurnClient), 504u);
  EXPECT_LE(sizeof(net::TcpLiteReceiver), 104u);
  EXPECT_LE(sizeof(net::TcpLiteSender), 160u);
}

TEST(ChurnClient, FutureArrivalMakesNothingUntilItFires) {
  Rig rig;
  auto client = rig.client(polite(Time::ms(100)));
  const std::uint64_t allocs = test::heap_allocs();
  const std::uint64_t frames = frames_made();
  client->start();
  EXPECT_EQ(test::heap_allocs() - allocs, 0u) << "start() allocated";
  rig.eng.run_until(Time::ms(100) - Time::ns(1));
  EXPECT_EQ(frames_made() - frames, 0u) << "a frame before the arrival";
  EXPECT_TRUE(rig.server.requests.empty());

  rig.eng.run_until(Time::ms(100));
  EXPECT_EQ(frames_made() - frames, 2u);  // run() and the SETUP's transact()
  rig.eng.run_until(Time::ms(110));
  ASSERT_EQ(rig.server.requests.size(), 1u);
  EXPECT_EQ(rig.server.requests[0].method, Method::kSetup);
}

TEST(ChurnClient, ScriptFramesFitOneHundredTwentyEightByteBlocks) {
  Rig rig;
  auto client = rig.client(polite(Time::zero()));
  const sim::detail::CoroPoolStats before = sim::coro_pool_stats();
  client->start();
  rig.eng.run_until(Time::ms(10));
  rig.server.answer(1);  // SETUP
  rig.eng.run_until(Time::ms(20));
  rig.server.answer(2);  // PLAY
  rig.eng.run_until(Time::ms(200));
  rig.server.answer(3);  // TEARDOWN
  rig.eng.run();
  ASSERT_TRUE(client->outcome().completed);
  const sim::detail::CoroPoolStats after = sim::coro_pool_stats();
  // run() and three transact()s, every one from a 128-byte block (bucket 1:
  // the 16-byte completion header plus at most 112 bytes of frame).
  EXPECT_EQ(after.frames - before.frames, 4u);
  EXPECT_EQ(after.bucket_frames[1] - before.bucket_frames[1], 4u);
}

TEST(ChurnClient, AnswerWithNoRequestWaitingIsCountedAndDropped) {
  Rig rig;
  auto client = rig.client(polite(Time::zero()));
  client->start();
  rig.eng.run_until(Time::ms(10));
  rig.server.answer(1);
  rig.eng.run_until(Time::ms(20));
  ASSERT_EQ(rig.server.requests.size(), 2u);
  rig.server.answer(2);
  rig.server.answer(2);  // a duplicate, landing while the client waits out
                         // its media before TEARDOWN
  rig.eng.run_until(Time::ms(50));
  EXPECT_EQ(client->outcome().cseq_errors, 1u);

  // The duplicate is gone: TEARDOWN waits for an answer of its own.
  rig.eng.run_until(Time::ms(200));
  ASSERT_EQ(rig.server.requests.size(), 3u);
  EXPECT_EQ(rig.server.requests[2].method, Method::kTeardown);
  EXPECT_FALSE(client->outcome().completed);
  rig.server.answer(3);
  rig.eng.run();
  EXPECT_TRUE(client->outcome().completed);
  EXPECT_EQ(client->outcome().cseq_errors, 1u);
}

TEST(ChurnClient, DestroyedBeforeItsArrivalRunsNothing) {
  Rig rig;
  auto client = rig.client(polite(Time::ms(50)));
  const std::uint64_t frames = frames_made();
  client->start();
  rig.eng.run_until(Time::ms(10));
  client.reset();
  rig.eng.run_until(Time::ms(100));
  EXPECT_EQ(frames_made() - frames, 0u);
  EXPECT_TRUE(rig.server.requests.empty());
  EXPECT_EQ(rig.eng.pending_events(), 0u);
}

TEST(ChurnClient, SetupLatencyRunsFromArrivalToAnswer) {
  Rig rig;
  auto client = rig.client(polite(Time::ms(5)));
  client->start();
  rig.eng.run_until(Time::ms(30));
  rig.server.answer(1, 453);
  rig.eng.run();
  const RtspChurnClient::Outcome& o = client->outcome();
  EXPECT_TRUE(o.responded_setup);
  EXPECT_FALSE(o.admitted);
  EXPECT_TRUE(o.completed);
  EXPECT_EQ(o.setup_status, 453);
  EXPECT_GT(o.setup_latency_ms, 25.0);  // arrived at 5 ms, answered after 30
  EXPECT_LT(o.setup_latency_ms, 27.0);
  EXPECT_EQ(rig.server.requests.size(), 1u);
}

}  // namespace
}  // namespace nistream::session
