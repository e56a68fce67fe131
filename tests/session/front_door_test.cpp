// Integration tests for session::RtspFrontDoor on a full SessionServer:
// lifecycle happy path, SETUP-time admission rejection, pause/resume gating
// of the data plane, incarnation-stale ids, state errors, half-open reaping,
// and control-connection FIN teardown.
#include "session/server.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "apps/client.hpp"
#include "rtsp_ctl.hpp"
#include "session/client.hpp"

namespace nistream::session {
namespace {

using sim::Time;
using test::Ctl;

struct Rig {
  sim::Engine eng;
  hw::EthernetSwitch ether{eng};
  std::unique_ptr<SessionServer> server;
  apps::MpegClient media{eng, ether};
  std::uint64_t rtcp_reports = 0;
  net::UdpEndpoint rtcp_sink{eng, ether, net::kHostStackCost,
                             [this](const net::Packet&, Time) {
                               ++rtcp_reports;
                             }};

  explicit Rig(SessionServer::Config cfg = fast_config()) {
    server = std::make_unique<SessionServer>(eng, ether, cfg);
  }

  /// Short timeouts so tests run in simulated fractions of a second.
  static SessionServer::Config fast_config() {
    SessionServer::Config cfg;
    cfg.door.idle_timeout = Time::ms(300);
    cfg.door.reap_interval = Time::ms(100);
    return cfg;
  }

  RtspRequest setup_request(std::uint64_t frames,
                            Time period = Time::ms(10)) const {
    RtspRequest req;
    req.method = Method::kSetup;
    req.cseq = 1;
    req.rtp_port = -1;  // caller fills; media.port() is not const here
    req.rtcp_port = rtcp_sink.port();
    req.tolerance = dwcs::WindowConstraint{1, 4};
    req.period = period;
    req.frame_bytes = 1000;
    req.frames = frames;
    return req;
  }
};

TEST(FrontDoor, SetupPlayTeardownDeliversFrames) {
  Rig rig;
  Ctl ctl{rig.eng, rig.ether, rig.server->control_port()};

  auto setup = rig.setup_request(10);
  setup.rtp_port = rig.media.port();
  ctl.send(setup);
  rig.eng.run_until(Time::ms(100));
  ASSERT_EQ(ctl.got.size(), 1u);
  EXPECT_EQ(ctl.got[0].status, 200);
  ASSERT_TRUE(ctl.got[0].has_stream);
  const std::uint64_t sid = ctl.got[0].session_id;
  const std::uint64_t stream = ctl.got[0].stream;
  EXPECT_EQ(incarnation_of(sid), rig.server->door().incarnation());
  EXPECT_EQ(rig.server->admission().admitted(), 1u);

  RtspRequest play;
  play.method = Method::kPlay;
  play.cseq = 2;
  play.session_id = sid;
  ctl.send(play);
  // 10 frames at 10ms + slack, but stay inside the 300ms idle timeout so
  // the reaper does not beat the TEARDOWN to the session.
  rig.eng.run_until(Time::ms(400));
  ASSERT_EQ(ctl.got.size(), 2u);
  EXPECT_EQ(ctl.got[1].status, 200);
  EXPECT_EQ(rig.media.frames_received(stream), 10u);
  EXPECT_GT(rig.rtcp_reports, 0u);  // sender reports rode the frame clock
  EXPECT_EQ(rig.server->door().stats().eos, 1u);

  RtspRequest teardown;
  teardown.method = Method::kTeardown;
  teardown.cseq = 3;
  teardown.session_id = sid;
  ctl.send(teardown);
  rig.eng.run_until(Time::ms(500));
  ASSERT_EQ(ctl.got.size(), 3u);
  EXPECT_EQ(ctl.got[2].status, 200);
  EXPECT_EQ(rig.server->door().live_sessions(), 0u);
  EXPECT_EQ(rig.server->admission().admitted(), 0u);  // reservation released
  EXPECT_EQ(rig.server->door().stats().post_play_admission_violations, 0u);
}

TEST(FrontDoor, AdmissionRejectGets453) {
  // A per-frame CPU cost larger than the frame period can never be admitted.
  auto cfg = Rig::fast_config();
  cfg.per_frame_cpu = Time::ms(50);
  Rig rig{cfg};
  Ctl ctl{rig.eng, rig.ether, rig.server->control_port()};
  auto setup = rig.setup_request(10, Time::ms(33));
  setup.rtp_port = rig.media.port();
  ctl.send(setup);
  rig.eng.run_until(Time::ms(100));
  ASSERT_EQ(ctl.got.size(), 1u);
  EXPECT_EQ(ctl.got[0].status, 453);
  EXPECT_EQ(ctl.got[0].session_id, 0u);
  EXPECT_EQ(rig.server->door().live_sessions(), 0u);
  EXPECT_EQ(rig.server->door().stats().rejected_453, 1u);
  EXPECT_EQ(rig.server->admission().admitted(), 0u);
}

TEST(FrontDoor, PauseStopsDataAndResumeRestarts) {
  // Paused sessions count as idle (a vanished client that paused first must
  // still be reaped eventually), so give this test a timeout comfortably
  // longer than its pause window.
  auto cfg = Rig::fast_config();
  cfg.door.idle_timeout = Time::sec(2);
  Rig rig{cfg};
  Ctl ctl{rig.eng, rig.ether, rig.server->control_port()};
  auto setup = rig.setup_request(500);
  setup.rtp_port = rig.media.port();
  ctl.send(setup);
  rig.eng.run_until(Time::ms(50));
  ASSERT_EQ(ctl.got.size(), 1u);
  const std::uint64_t sid = ctl.got[0].session_id;
  const std::uint64_t stream = ctl.got[0].stream;

  RtspRequest play;
  play.method = Method::kPlay;
  play.cseq = 2;
  play.session_id = sid;
  ctl.send(play);
  rig.eng.run_until(Time::ms(400));
  const std::uint64_t before_pause = rig.media.frames_received(stream);
  EXPECT_GT(before_pause, 10u);

  RtspRequest pause;
  pause.method = Method::kPause;
  pause.cseq = 3;
  pause.session_id = sid;
  ctl.send(pause);
  rig.eng.run_until(Time::ms(450));
  rig.media.notify_pause(stream);
  const std::uint64_t at_pause = rig.media.frames_received(stream);
  rig.eng.run_until(Time::ms(900));
  // Paused: at most the frames already in the ring drain; no steady drip.
  const std::uint64_t during_pause =
      rig.media.frames_received(stream) - at_pause;
  EXPECT_LE(during_pause, 8u);  // bounded by the ring, not by elapsed time
  EXPECT_LE(rig.media.frames_while_paused(), 8u);
  EXPECT_EQ(rig.server->door().stats().pauses, 1u);

  rig.media.notify_resume(stream);
  RtspRequest resume;
  resume.method = Method::kPlay;
  resume.cseq = 4;
  resume.session_id = sid;
  ctl.send(resume);
  rig.eng.run_until(Time::ms(1500));
  EXPECT_GT(rig.media.frames_received(stream), at_pause + during_pause + 10);
  EXPECT_EQ(rig.server->door().stats().resumes, 1u);
  EXPECT_EQ(rig.server->door().stats().plays, 1u);  // one cold start only
  EXPECT_EQ(rig.server->door().live_pumps(), 1u);   // same pump throughout
}

TEST(FrontDoor, StaleIncarnationGets454) {
  auto cfg = Rig::fast_config();
  cfg.door.incarnation = 2;
  Rig rig{cfg};
  Ctl ctl{rig.eng, rig.ether, rig.server->control_port()};
  RtspRequest play;
  play.method = Method::kPlay;
  play.cseq = 1;
  play.session_id = make_session_id(1, 1);  // a pre-reboot id
  ctl.send(play);
  rig.eng.run_until(Time::ms(100));
  ASSERT_EQ(ctl.got.size(), 1u);
  EXPECT_EQ(ctl.got[0].status, 454);
  EXPECT_EQ(rig.server->door().stats().stale_454, 1u);
}

TEST(FrontDoor, TeardownUnknownSessionGets454) {
  Rig rig;
  Ctl ctl{rig.eng, rig.ether, rig.server->control_port()};
  RtspRequest teardown;
  teardown.method = Method::kTeardown;
  teardown.cseq = 1;
  teardown.session_id = make_session_id(1, 999);  // right incarnation, no such session
  ctl.send(teardown);
  rig.eng.run_until(Time::ms(100));
  ASSERT_EQ(ctl.got.size(), 1u);
  EXPECT_EQ(ctl.got[0].status, 454);
}

TEST(FrontDoor, PauseBeforePlayGets455) {
  Rig rig;
  Ctl ctl{rig.eng, rig.ether, rig.server->control_port()};
  auto setup = rig.setup_request(10);
  setup.rtp_port = rig.media.port();
  ctl.send(setup);
  rig.eng.run_until(Time::ms(50));
  ASSERT_EQ(ctl.got.size(), 1u);
  RtspRequest pause;
  pause.method = Method::kPause;
  pause.cseq = 2;
  pause.session_id = ctl.got[0].session_id;
  ctl.send(pause);
  rig.eng.run_until(Time::ms(100));
  ASSERT_EQ(ctl.got.size(), 2u);
  EXPECT_EQ(ctl.got[1].status, 455);
  EXPECT_EQ(rig.server->door().stats().bad_state_455, 1u);
}

TEST(FrontDoor, MalformedRequestGets400) {
  Rig rig;
  Ctl ctl{rig.eng, rig.ether, rig.server->control_port()};
  // A parseable *header* block that fails request validation. Reply-Port
  // must still be honored so the 400 has somewhere to go.
  auto body = std::make_shared<std::string>(
      "FETCH rtsp://x RTSP/1.0\r\nCSeq: 1\r\nReply-Port: " +
      std::to_string(ctl.rx.port()) + "\r\n\r\n");
  net::Packet pkt;
  pkt.bytes = static_cast<std::uint32_t>(body->size());
  pkt.body = std::move(body);
  ctl.tx.send(pkt);
  rig.eng.run_until(Time::ms(100));
  ASSERT_EQ(ctl.got.size(), 1u);
  EXPECT_EQ(ctl.got[0].status, 400);
  EXPECT_EQ(rig.server->door().stats().bad_requests, 1u);
}

TEST(FrontDoor, HalfOpenSessionIsReapedAndAdmissionReleased) {
  Rig rig;  // idle_timeout 300ms, reap 100ms
  const RtspChurnClient::Config config{
      .behavior = RtspChurnClient::Behavior::kVanish,
      .frames = 5,
      .period = Time::ms(10)};
  auto client = std::make_unique<RtspChurnClient>(
      rig.eng, rig.ether, rig.server->control_port(), rig.media,
      rig.rtcp_sink.port(), config);
  client->start();
  rig.eng.run_until(Time::sec(2));
  EXPECT_TRUE(client->outcome().admitted);
  EXPECT_TRUE(client->outcome().completed);
  // Media ran dry (~50ms), then the vanished client went idle past the
  // timeout: the reaper must have collected it and released its share.
  EXPECT_EQ(rig.server->door().live_sessions(), 0u);
  EXPECT_EQ(rig.server->door().stats().reaped_idle, 1u);
  EXPECT_EQ(rig.server->door().stats().eos, 1u);
  EXPECT_EQ(rig.server->admission().admitted(), 0u);
  EXPECT_EQ(rig.media.frames_received(client->stream()), 5u);
}

TEST(FrontDoor, ControlConnectionFinTearsSessionsDown) {
  Rig rig;
  Ctl ctl{rig.eng, rig.ether, rig.server->control_port()};
  auto setup = rig.setup_request(1000);
  setup.rtp_port = rig.media.port();
  ctl.send(setup);
  rig.eng.run_until(Time::ms(50));
  ASSERT_EQ(ctl.got.size(), 1u);
  RtspRequest play;
  play.method = Method::kPlay;
  play.cseq = 2;
  play.session_id = ctl.got[0].session_id;
  ctl.send(play);
  rig.eng.run_until(Time::ms(200));
  EXPECT_EQ(rig.server->door().live_sessions(), 1u);
  // FIN without TEARDOWN: the server must close everything the connection
  // owned, mid-play included.
  ctl.tx.close();
  rig.eng.run_until(Time::ms(400));
  EXPECT_EQ(rig.server->door().live_sessions(), 0u);
  EXPECT_EQ(rig.server->door().stats().conn_closed, 1u);
  EXPECT_EQ(rig.server->admission().admitted(), 0u);
  EXPECT_EQ(rig.server->door().stats().teardowns, 0u);
}

TEST(FrontDoor, SlowStartClientCompletes) {
  Rig rig;
  const RtspChurnClient::Config config{
      .behavior = RtspChurnClient::Behavior::kSlowStart,
      .frames = 5,
      .period = Time::ms(10),
      .slow_start_chunks = 6,
      .dribble_gap = Time::ms(30),
      // Tear down well inside the test rig's 300ms idle timeout.
      .drain_slack = Time::ms(100)};
  auto client = std::make_unique<RtspChurnClient>(
      rig.eng, rig.ether, rig.server->control_port(), rig.media,
      rig.rtcp_sink.port(), config);
  client->start();
  rig.eng.run_until(Time::sec(3));
  EXPECT_TRUE(client->outcome().admitted);
  EXPECT_TRUE(client->outcome().completed);
  EXPECT_EQ(client->outcome().cseq_errors, 0u);
  EXPECT_EQ(rig.server->door().stats().teardowns, 1u);
  EXPECT_EQ(rig.server->door().live_sessions(), 0u);
  EXPECT_EQ(rig.media.frames_received(client->stream()), 5u);
}

TEST(FrontDoor, StormDepthShrinksTheIdleTimeout) {
  auto cfg = Rig::fast_config();  // idle 300ms, reap every 100ms
  cfg.door.reap_storm_threshold = 4;
  cfg.door.min_idle_timeout = Time::ms(50);
  Rig rig{cfg};

  // The adaptation curve itself: proportional past the threshold, floored.
  EXPECT_EQ(rig.server->door().effective_idle_timeout(0), Time::ms(300));
  EXPECT_EQ(rig.server->door().effective_idle_timeout(4), Time::ms(300));
  EXPECT_EQ(rig.server->door().effective_idle_timeout(16), Time::ms(75));
  EXPECT_EQ(rig.server->door().effective_idle_timeout(1'000'000),
            Time::ms(50));

  // A connection storm: 16 SETUPs whose clients never PLAY and never close.
  Ctl ctl{rig.eng, rig.ether, rig.server->control_port()};
  for (int i = 0; i < 16; ++i) {
    auto setup = rig.setup_request(10);
    setup.cseq = static_cast<std::uint64_t>(i + 1);
    setup.rtp_port = rig.media.port();
    ctl.send(setup);
  }
  rig.eng.run_until(Time::ms(50));
  ASSERT_EQ(rig.server->door().live_sessions(), 16u);
  ASSERT_EQ(rig.server->admission().admitted(), 16u);

  // At depth 16 the effective timeout is 75ms, so the storm is collected
  // well before the base 300ms idle timeout would have fired.
  rig.eng.run_until(Time::ms(250));
  EXPECT_EQ(rig.server->door().live_sessions(), 0u);
  EXPECT_EQ(rig.server->door().stats().reaped_idle, 16u);
  EXPECT_EQ(rig.server->admission().admitted(), 0u);
}

TEST(FrontDoor, ShallowIdlePoolKeepsTheBaseTimeout) {
  auto cfg = Rig::fast_config();
  cfg.door.reap_storm_threshold = 4;
  Rig rig{cfg};
  Ctl ctl{rig.eng, rig.ether, rig.server->control_port()};
  // Two idle sessions: at or below the threshold, nothing shrinks — they
  // survive past where the storm case was already swept.
  for (int i = 0; i < 2; ++i) {
    auto setup = rig.setup_request(10);
    setup.cseq = static_cast<std::uint64_t>(i + 1);
    setup.rtp_port = rig.media.port();
    ctl.send(setup);
  }
  rig.eng.run_until(Time::ms(250));
  EXPECT_EQ(rig.server->door().live_sessions(), 2u);
  rig.eng.run_until(Time::ms(500));  // base 300ms timeout does fire
  EXPECT_EQ(rig.server->door().live_sessions(), 0u);
  EXPECT_EQ(rig.server->door().stats().reaped_idle, 2u);
}

}  // namespace
}  // namespace nistream::session
