// session::RtspChurnClient — one scripted RTSP client lifecycle.
//
// Four behaviors, matching the churn bench's workload axes:
//  * kPolite      — SETUP, PLAY, wait out the media, TEARDOWN, FIN.
//  * kSlowStart   — same protocol, but the SETUP request dribbles in over
//                   many TCP segments (MessageBuffer reassembly stress).
//  * kPauseResume — PAUSE mid-media and PLAY again before finishing.
//  * kVanish      — SETUP + PLAY, then silence forever: no TEARDOWN, no
//                   FIN. The server's idle reaper must recover the session
//                   (half-open teardown).
//
// The RTP data plane lands on a shared apps::MpegClient — the same client
// model the synthetic workloads use (satellite: one client model, not two).
// Control rides TcpLite both ways: this client owns its request sender and
// its response receiver, and names the latter's port in Reply-Port.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "apps/client.hpp"
#include "hw/ethernet.hpp"
#include "net/tcplite.hpp"
#include "net/udp.hpp"
#include "session/rtsp.hpp"
#include "sim/coro.hpp"
#include "sim/engine.hpp"

namespace nistream::session {

class RtspChurnClient {
 public:
  enum class Behavior { kPolite, kSlowStart, kPauseResume, kVanish };

  struct Config {
    Behavior behavior = Behavior::kPolite;
    sim::Time arrival = sim::Time::zero();  // when this client SETUPs
    /// Request URI; a tenant-aware server reads the first path segment as
    /// the tenant name ("rtsp://ni/acme/movie" → tenant "acme").
    std::string uri = "rtsp://ni/stream";
    std::uint64_t frames = 8;
    sim::Time period = sim::Time::ms(33);
    dwcs::WindowConstraint tolerance{1, 4};
    std::uint32_t frame_bytes = 1000;
    /// kSlowStart: the SETUP text is sent in this many TCP segments with
    /// `dribble_gap` between them.
    int slow_start_chunks = 4;
    sim::Time dribble_gap = sim::Time::ms(40);
    /// kPauseResume: PAUSE this long after PLAY, resume after pause_for.
    sim::Time pause_after = sim::Time::ms(100);
    sim::Time pause_for = sim::Time::ms(150);
    /// Margin past the nominal media duration before TEARDOWN.
    sim::Time drain_slack = sim::Time::ms(500);
  };

  struct Outcome {
    bool responded_setup = false;
    bool admitted = false;
    bool completed = false;  // lifecycle script ran to its end
    int setup_status = 0;
    double setup_latency_ms = 0;
    std::uint64_t cseq_errors = 0;
  };

  RtspChurnClient(sim::Engine& engine, hw::EthernetSwitch& ether,
                  int control_port, apps::MpegClient& media, int rtcp_port,
                  Config config)
      : engine_{engine}, config_{config}, media_{media},
        rtcp_port_{rtcp_port}, responses_{engine},
        resp_rx_{engine, ether, net::kHostStackCost,
                 net::TcpLiteReceiver::DeliverFrom{
                     [this](const net::Packet& p, int, sim::Time) {
                       on_response_bytes(p);
                     }}},
        ctl_tx_{engine, ether, net::kHostStackCost, control_port,
                net::TcpLiteSenderParams{.window = 8, .max_retx_rounds = 8}} {}

  RtspChurnClient(const RtspChurnClient&) = delete;
  RtspChurnClient& operator=(const RtspChurnClient&) = delete;

  /// Kick off the scripted lifecycle (returns immediately; the script runs
  /// on the engine). The client object must outlive the run.
  void start() { run().detach(); }

  [[nodiscard]] const Outcome& outcome() const { return outcome_; }
  [[nodiscard]] std::uint64_t session_id() const { return session_id_; }
  [[nodiscard]] std::uint64_t stream() const { return stream_; }

 private:
  void on_response_bytes(const net::Packet& p) {
    if (const auto* chunk = static_cast<const std::string*>(p.body.get())) {
      buf_.append(*chunk);
    }
    while (auto msg = buf_.next()) {
      if (auto resp = parse_response(*msg)) responses_.send(*resp);
    }
  }

  void send_text(std::string text) {
    net::Packet pkt;
    pkt.bytes = static_cast<std::uint32_t>(text.size());
    pkt.body = std::make_shared<std::string>(std::move(text));
    ctl_tx_.send(pkt);
  }

  /// kSlowStart sends the text in pieces with a gap between segments — the
  /// server sees a request trickling across many TcpLite deliveries.
  sim::Coro send_dribbled(std::string text) {
    const std::size_t n =
        static_cast<std::size_t>(std::max(config_.slow_start_chunks, 1));
    const std::size_t step = (text.size() + n - 1) / n;
    for (std::size_t pos = 0; pos < text.size(); pos += step) {
      if (pos != 0) co_await sim::Delay{engine_, config_.dribble_gap};
      send_text(text.substr(pos, step));
    }
  }

  /// The text of a `method` request, built from the client's own state.
  [[nodiscard]] std::string request_text(Method method,
                                         std::uint64_t cseq) const {
    RtspRequest req;
    req.method = method;
    req.reply_port = resp_rx_.port();
    req.cseq = cseq;
    if (method == Method::kSetup) {
      req.uri = config_.uri;
      req.rtp_port = media_.port();
      req.rtcp_port = rtcp_port_;
      req.tolerance = config_.tolerance;
      req.period = config_.period;
      req.frame_bytes = config_.frame_bytes;
      req.frames = config_.frames;
    } else {
      req.session_id = session_id_;
    }
    return format_request(req);
  }

  /// Send a `method` request and await the response to its cseq (responses
  /// come back in order on the control connection; a mismatch is counted,
  /// not fatal). The request text moves into the segment body, so while the
  /// client waits for its answer the coroutine frame holds only the CSeq.
  sim::Coro transact(Method method, RtspResponse* out) {
    const std::uint64_t cseq = ++cseq_;
    if (config_.behavior == Behavior::kSlowStart && method == Method::kSetup) {
      co_await send_dribbled(request_text(method, cseq));
    } else {
      send_text(request_text(method, cseq));
    }
    *out = co_await responses_.receive();
    if (out->cseq != cseq) ++outcome_.cseq_errors;
  }

  sim::Coro run() {
    co_await sim::Delay{engine_, config_.arrival};

    const sim::Time t0 = engine_.now();
    RtspResponse resp;
    co_await transact(Method::kSetup, &resp);
    outcome_.responded_setup = true;
    outcome_.setup_status = resp.status;
    outcome_.setup_latency_ms = (engine_.now() - t0).to_ms();
    if (resp.status != 200) {
      // 453: over capacity. The polite thing — and what keeps the server's
      // connection table clean — is to FIN the control channel and go away.
      ctl_tx_.close();
      outcome_.completed = true;
      co_return;
    }
    outcome_.admitted = true;
    session_id_ = resp.session_id;
    stream_ = resp.stream;

    co_await transact(Method::kPlay, &resp);

    if (config_.behavior == Behavior::kVanish) {
      // Half-open: never speaks again, never closes. The server's reaper
      // owns this session's fate now.
      outcome_.completed = true;
      co_return;
    }

    const sim::Time media =
        config_.period * static_cast<std::int64_t>(config_.frames) +
        config_.drain_slack;
    if (config_.behavior == Behavior::kPauseResume) {
      co_await sim::Delay{engine_, config_.pause_after};
      co_await transact(Method::kPause, &resp);
      if (resp.status == 200) media_.notify_pause(stream_);
      co_await sim::Delay{engine_, config_.pause_for};
      co_await transact(Method::kPlay, &resp);
      if (resp.status == 200) media_.notify_resume(stream_);
    }
    co_await sim::Delay{engine_, media};

    co_await transact(Method::kTeardown, &resp);
    media_.notify_end(stream_, engine_.now());
    ctl_tx_.close();
    outcome_.completed = true;
  }

  sim::Engine& engine_;
  Config config_;
  apps::MpegClient& media_;
  int rtcp_port_;
  MessageBuffer buf_;
  sim::Mailbox<RtspResponse> responses_;
  net::TcpLiteReceiver resp_rx_;
  net::TcpLiteSender ctl_tx_;
  Outcome outcome_;
  std::uint64_t cseq_ = 0;
  std::uint64_t session_id_ = 0;
  std::uint64_t stream_ = 0;
};

}  // namespace nistream::session
