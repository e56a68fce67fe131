// session::RtspChurnClient on its own, against a bare control server that
// answers only when a test tells it to: the client's footprint (object size,
// nothing made before its arrival, transport state only from its arrival
// until its last ACK lands and its answer path only from its first answer
// on, no coroutine frame in any behavior), its one outstanding answer, and
// owner-safe destruction before its arrival and while it waits.
#include "session/client.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
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
  int peer = -1;  // the port the last request came from

  Server(sim::Engine& eng_, hw::EthernetSwitch& ether_)
      : eng{eng_}, ether{ether_},
        rx{eng_, ether_, net::kNiStackCost,
           net::TcpLiteReceiver::DeliverFrom{
               [this](const net::Packet& p, int from, Time) {
                 peer = from;
                 on_bytes(p);
               }}} {}

  /// Drop what the server holds for the client it served: its answer
  /// sender and the requests it kept.
  void forget_client() {
    tx.reset();
    requests.clear();
  }

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

  /// A client on `c`, which the rig keeps for the client to borrow.
  std::unique_ptr<RtspChurnClient> client(RtspChurnClient::Config c) {
    return std::make_unique<RtspChurnClient>(
        eng, ether, server.rx.port(), media, rtcp_sink.port(),
        configs.emplace_back(std::move(c)));
  }

  std::deque<RtspChurnClient::Config> configs;  // no element ever moves
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

// A client borrows its caller's config: it is built from a config that
// outlives it, and a temporary, which would die first, does not compile.
static_assert(std::is_constructible_v<
              RtspChurnClient, sim::Engine&, hw::EthernetSwitch&, int,
              apps::MpegClient&, int, const RtspChurnClient::Config&>);
static_assert(!std::is_constructible_v<
              RtspChurnClient, sim::Engine&, hw::EthernetSwitch&, int,
              apps::MpegClient&, int, RtspChurnClient::Config&&>);

TEST(ChurnClient, ObjectStaysLean) {
  // 100k clients live through a storm. Each is a record: a reference to its
  // caller's config, its outcome, session id, stream and port addresses; no
  // engine reference. Its endpoints live in the block it holds while it
  // talks, and its receiver carries no service-port state.
  EXPECT_LE(sizeof(RtspChurnClient), 88u);
  EXPECT_LE(sizeof(net::TcpLiteReceiver), 104u);
  EXPECT_LE(sizeof(net::TcpLiteSender), 160u);
}

TEST(ChurnClient, TransportLivesFromArrivalUntilItsLastAckLands) {
  Rig rig;
  {  // One lifecycle first warms every pool a lifecycle draws on.
    auto warm = rig.client(polite(Time::zero()));
    warm->start();
    rig.eng.run_until(Time::ms(10));
    rig.server.answer(1, 453);
    rig.eng.run();
    ASSERT_TRUE(warm->outcome().completed);
    // Freed before the client's ports, so the next client gets the same
    // port indices and the server's receiver needs no new peer entry.
    rig.server.forget_client();
  }

  [[maybe_unused]] const std::int64_t before = test::heap_live_bytes();
  auto client = rig.client(polite(Time::ms(50)));
  const std::int64_t record = test::heap_live_bytes();
  const Time arrival = rig.eng.now() + Time::ms(50);
  client->start();
  rig.eng.run_until(arrival - Time::ns(1));
  EXPECT_EQ(test::heap_live_bytes(), record) << "made before the arrival";

  rig.eng.run_until(arrival + Time::ms(10));
  ASSERT_EQ(rig.server.requests.size(), 1u);
  const int resp_port = rig.server.requests[0].reply_port;
  const int ctl_port = rig.server.peer;
  [[maybe_unused]] const std::int64_t waiting = test::heap_live_bytes();
  rig.server.answer(1, 453);
  // Step until the answer's one segment is on the wire and has landed.
  [[maybe_unused]] const std::int64_t answered = test::heap_live_bytes();
  while (rig.ether.frames_in_flight() == 0) ASSERT_TRUE(rig.eng.step());
  while (rig.ether.frames_in_flight() > 0) ASSERT_TRUE(rig.eng.step());
  [[maybe_unused]] const std::int64_t landed = test::heap_live_bytes();
  rig.eng.run();  // the 453, the client's FIN and the FIN's ACK
  ASSERT_TRUE(client->outcome().completed);
  rig.server.forget_client();
  EXPECT_EQ(test::heap_live_bytes(), record)
      << "transport state outlived the last ACK";
#if NISTREAM_COUNTING_NEW
  // The record's block alone: a default config holds no URI string.
  EXPECT_LE(record - before,
            static_cast<std::int64_t>(sizeof(RtspChurnClient)))
      << "more than the record before arrival";
  // While it waits on its SETUP, the client holds its sender and no
  // receiver; the answer's first segment builds the receiver.
  constexpr auto kSender =
      static_cast<std::int64_t>(sizeof(net::TcpLiteSender));
  constexpr auto kReceiver =
      static_cast<std::int64_t>(sizeof(net::TcpLiteReceiver));
  EXPECT_GE(waiting - record, kSender) << "no sender while the client waits";
  EXPECT_LT(waiting - record, kSender + kReceiver)
      << "a receiver before any answer landed";
  EXPECT_GE(waiting - record + landed - answered, kSender + kReceiver)
      << "no receiver once the answer landed";
#endif

  // The record keeps both port addresses until it dies.
  EXPECT_TRUE(rig.ether.attached(resp_port));
  EXPECT_TRUE(rig.ether.attached(ctl_port));
  client.reset();
  EXPECT_FALSE(rig.ether.attached(resp_port));
  EXPECT_FALSE(rig.ether.attached(ctl_port));
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
  EXPECT_EQ(frames_made() - frames, 0u);  // the script runs on events
  rig.eng.run_until(Time::ms(110));
  ASSERT_EQ(rig.server.requests.size(), 1u);
  EXPECT_EQ(rig.server.requests[0].method, Method::kSetup);
}

/// One lifecycle: a behavior, the status its SETUP gets (every later
/// request gets 200) and the requests its script must send.
struct Script {
  const char* name;
  RtspChurnClient::Config config;
  int setup_status;
  std::vector<Method> requests;
};

RtspChurnClient::Config behaving(RtspChurnClient::Behavior behavior,
                                 Time dribble_gap = Time::ms(40)) {
  RtspChurnClient::Config c = polite(Time::zero());
  c.behavior = behavior;
  c.dribble_gap = dribble_gap;
  return c;
}

TEST(ChurnClient, ScriptMakesNoCoroutineFrameInAnyBehavior) {
  using enum Method;
  using B = RtspChurnClient::Behavior;
  const std::vector<Script> scripts = {
      {"polite", behaving(B::kPolite), 200, {kSetup, kPlay, kTeardown}},
      {"refused", behaving(B::kPolite), 453, {kSetup}},
      {"slow start, 40 ms gaps", behaving(B::kSlowStart), 200,
       {kSetup, kPlay, kTeardown}},
      {"slow start, no gap", behaving(B::kSlowStart, Time::zero()), 200,
       {kSetup, kPlay, kTeardown}},
      {"pause and resume", behaving(B::kPauseResume), 200,
       {kSetup, kPlay, kPause, kPlay, kTeardown}},
      {"vanish", behaving(B::kVanish), 200, {kSetup, kPlay}},
  };
  Rig rig;
  for (const Script& script : scripts) {
    SCOPED_TRACE(script.name);
    const std::uint64_t frames = frames_made();
    auto client = rig.client(script.config);
    client->start();
    // Answer each request as soon as the server has all of it.
    std::uint64_t answered = 0;
    while (!client->outcome().completed && rig.eng.step()) {
      if (rig.server.requests.size() > answered) {
        ++answered;
        rig.server.answer(answered, answered == 1 ? script.setup_status : 200);
      }
    }
    rig.eng.run();  // the FIN and its ACK, if the script closes
    ASSERT_TRUE(client->outcome().completed);
    std::vector<Method> sent;
    for (const RtspRequest& r : rig.server.requests) sent.push_back(r.method);
    EXPECT_EQ(sent, script.requests);
    EXPECT_EQ(frames_made() - frames, 0u);
    client.reset();
    rig.server.forget_client();
  }
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

TEST(ChurnClient, DestroyedWhileItWaitsRunsNothing) {
  Rig rig;
  auto client = rig.client(polite(Time::zero()));
  client->start();
  rig.eng.run_until(Time::ms(10));
  rig.server.answer(1);
  rig.eng.run_until(Time::ms(20));
  rig.server.answer(2);
  rig.eng.run_until(Time::ms(30));
  ASSERT_EQ(rig.server.requests.size(), 2u);
  ASSERT_GT(rig.eng.pending_events(), 0u);  // the TEARDOWN's wait
  client.reset();
  rig.eng.run();
  EXPECT_EQ(rig.server.requests.size(), 2u);
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
