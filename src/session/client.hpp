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
//
// A client holds only what its stage of the script uses, because a storm
// builds 100k of them at once:
//  * It starts at its arrival. start() schedules the arrival event; the
//    script's coroutine is made when it fires, and lives until the script
//    ends. Before that the client is its endpoints and its Config.
//  * One answer outstanding. A client has at most one request in flight, so
//    the waiting coroutine's handle and the answer it waits for are all the
//    answer path needs: no mailbox. The answer's CSeq is checked when it
//    lands, and the client keeps only its status, session id and stream. An
//    answer that arrives while no request waits is counted in cseq_errors
//    and dropped.
//  * The script is a plain member function (next_step) that books each
//    answer and picks the next request and the wait before it. run() only
//    loops over it, so its frame, and transact()'s, fit 128-byte pool blocks.
//  * No engine reference: the client reaches the engine through its switch.
//    The object is 496 bytes, of which its endpoints take 264 and its own
//    Config copy 120.
//
// Lifetime: a client may be destroyed before its arrival (the arrival event
// then runs nothing) or after its script completes (outcome().completed).
// Destroying it while the script waits on a timer or an answer is not
// supported.
#pragma once

#include <algorithm>
#include <coroutine>
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
    /// Answers whose CSeq was not the waiting request's, plus answers that
    /// arrived while no request waited.
    std::uint64_t cseq_errors = 0;
  };

  /// `engine` must be the switch's own.
  RtspChurnClient(sim::Engine& engine, hw::EthernetSwitch& ether,
                  int control_port, apps::MpegClient& media, int rtcp_port,
                  Config config)
      : config_{std::move(config)}, media_{media}, rtcp_port_{rtcp_port},
        resp_rx_{engine, ether, net::kHostStackCost,
                 net::TcpLiteReceiver::DeliverFrom{
                     [this](const net::Packet& p, int, sim::Time) {
                       on_response_bytes(p);
                     }}},
        ctl_tx_{engine, ether, net::kHostStackCost, control_port,
                net::TcpLiteSenderParams{.window = 8, .max_retx_rounds = 8}} {}

  RtspChurnClient(const RtspChurnClient&) = delete;
  RtspChurnClient& operator=(const RtspChurnClient&) = delete;

  /// Kick off the scripted lifecycle `config.arrival` from now (returns
  /// immediately; the script runs on the engine). An arrival at or before
  /// now starts the script at once. The arrival event checks the client's
  /// response port first, so a client destroyed before it runs nothing.
  void start() {
    if (config_.arrival <= sim::Time::zero()) {
      run().detach();
      return;
    }
    net::detail::schedule_while_attached(engine(), resp_rx_.ether(),
                                         resp_rx_.port(), config_.arrival,
                                         [this] { run().detach(); });
  }

  [[nodiscard]] const Outcome& outcome() const { return outcome_; }
  [[nodiscard]] std::uint64_t session_id() const { return session_id_; }
  [[nodiscard]] std::uint64_t stream() const { return stream_; }

 private:
  /// One request of the script and the wait before it.
  struct Step {
    sim::Time wait;
    Method method = Method::kUnknown;  // kUnknown: the script is over
  };

  /// co_await Answer{*this}: park until on_response_bytes() has the answer.
  struct Answer {
    RtspChurnClient& client;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) const noexcept {
      client.waiting_ = h;
    }
    void await_resume() const noexcept {}
  };

  [[nodiscard]] sim::Engine& engine() const {
    return resp_rx_.ether().engine();
  }

  void on_response_bytes(const net::Packet& p) {
    if (const auto* chunk = static_cast<const std::string*>(p.body.get())) {
      buf_.append(*chunk);
    }
    while (auto msg = buf_.next()) {
      const auto resp = parse_response(*msg);
      if (!resp) continue;
      if (!waiting_) {  // nothing asked for this one
        ++outcome_.cseq_errors;
        continue;
      }
      if (resp->cseq != cseq_) ++outcome_.cseq_errors;
      answer_status_ = resp->status;
      answer_session_ = resp->session_id;
      answer_stream_ = resp->stream;
      // The wake-up a Semaphore::release would schedule.
      engine().schedule_in(sim::Time::zero(),
                           [h = std::exchange(waiting_, {})] { h.resume(); });
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
  sim::Coro send_dribbled(Method method) {
    const std::string text = request_text(method);
    const std::size_t n =
        static_cast<std::size_t>(std::max(config_.slow_start_chunks, 1));
    const std::size_t step = (text.size() + n - 1) / n;
    for (std::size_t pos = 0; pos < text.size(); pos += step) {
      if (pos != 0) co_await sim::Delay{engine(), config_.dribble_gap};
      send_text(text.substr(pos, step));
    }
  }

  /// The text of a `method` request under the current CSeq, built from the
  /// client's own state.
  [[nodiscard]] std::string request_text(Method method) const {
    RtspRequest req;
    req.method = method;
    req.reply_port = resp_rx_.port();
    req.cseq = cseq_;
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

  /// Send a `method` request and await its answer (answers come back in
  /// order on the control connection; a CSeq mismatch is counted, not
  /// fatal). The request text moves into the segment body, so while the
  /// client waits the frame holds no text.
  sim::Coro transact(Method method) {
    const sim::Time sent = engine().now();
    ++cseq_;
    if (config_.behavior == Behavior::kSlowStart && method == Method::kSetup) {
      co_await send_dribbled(method);
    } else {
      send_text(request_text(method));
    }
    co_await Answer{*this};
    if (method == Method::kSetup) {
      outcome_.setup_latency_ms = (engine().now() - sent).to_ms();
    }
  }

  /// The lifecycle script, one call per answer. cseq_ requests have been
  /// answered so far and the last answer is in answer_*: book it, and return
  /// the next request with the wait before it. Requests 1 and 2 are SETUP
  /// and PLAY, kPauseResume then sends PAUSE (3) and PLAY (4), and every
  /// behavior but kVanish ends with TEARDOWN.
  Step next_step() {
    const auto finish = [this] {
      outcome_.completed = true;
      return Step{};
    };
    const bool pause_resume = config_.behavior == Behavior::kPauseResume;
    const sim::Time media =
        config_.period * static_cast<std::int64_t>(config_.frames) +
        config_.drain_slack;
    switch (cseq_) {
      case 0:
        return {sim::Time::zero(), Method::kSetup};
      case 1:  // SETUP answered
        outcome_.responded_setup = true;
        outcome_.setup_status = answer_status_;
        if (answer_status_ != 200) {
          // 453: over capacity. The polite thing — and what keeps the
          // server's connection table clean — is to FIN the control channel
          // and go away.
          ctl_tx_.close();
          return finish();
        }
        outcome_.admitted = true;
        session_id_ = answer_session_;
        stream_ = answer_stream_;
        return {sim::Time::zero(), Method::kPlay};
      case 2:  // PLAY answered
        // Half-open: a vanishing client never speaks again, never closes.
        // The server's reaper owns this session's fate now.
        if (config_.behavior == Behavior::kVanish) return finish();
        if (pause_resume) return {config_.pause_after, Method::kPause};
        return {media, Method::kTeardown};
      case 3:  // PAUSE answered (kPauseResume), else TEARDOWN
        if (!pause_resume) break;
        if (answer_status_ == 200) media_.notify_pause(stream_);
        return {config_.pause_for, Method::kPlay};
      case 4:  // the resuming PLAY answered
        if (answer_status_ == 200) media_.notify_resume(stream_);
        return {media, Method::kTeardown};
      default:
        break;
    }
    media_.notify_end(stream_, engine().now());  // TEARDOWN answered
    ctl_tx_.close();
    return finish();
  }

  sim::Coro run() {
    for (Step step = next_step(); step.method != Method::kUnknown;
         step = next_step()) {
      co_await sim::Delay{engine(), step.wait};
      co_await transact(step.method);
    }
  }

  Config config_;
  apps::MpegClient& media_;
  int rtcp_port_;
  int answer_status_ = 0;  // the last answer handed to transact()
  MessageBuffer buf_;
  net::TcpLiteReceiver resp_rx_;
  net::TcpLiteSender ctl_tx_;
  std::coroutine_handle<> waiting_;  // transact() parked on its answer
  std::uint64_t answer_session_ = 0;
  Outcome outcome_;
  std::uint64_t cseq_ = 0;  // requests sent, and the CSeq of the last one
  std::uint64_t session_id_ = 0;
  dwcs::StreamId stream_ = 0;
  dwcs::StreamId answer_stream_ = 0;
};

}  // namespace nistream::session
