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
// builds 100k of them at once. It is a record and, while it talks, a live
// block:
//  * The record (88 bytes) is what the client is from construction to
//    destruction: a reference to its caller's Config (one word, where a
//    copy would take 120 bytes), its outcome, session id and stream, and
//    its two port addresses. It attaches both ports at
//    construction, parked on a no-op receiver (hw::EthernetSwitch::parked),
//    response receiver's first, and detaches them when it dies, request
//    sender's first. So every port address, and the order in which the
//    switch recycles them, is what it would be if the endpoints lived on
//    their own ports for the client's whole life.
//  * The live block (200 bytes) is the transport: the TcpLite sender on
//    the request port, the request's send time, the CSeq and the waiting
//    flag. The arrival event builds it, after checking that the response
//    port is still attached, so a client destroyed before its arrival
//    builds nothing. It binds the response port to a one-word thunk.
//  * The answer half (152 bytes) is the answer path: the reassembly buffer,
//    the TcpLite receiver on the response port and the last answer. The
//    thunk builds it when the first frame lands on that port and hands it
//    the frame inside the same delivery event, so the receiver's stack-cost
//    event keeps its instant and its place in event order, and a receiver
//    is in its initial state until its first frame anyway. A client waiting
//    for its SETUP answer, as most of a storm's live clients are, holds no
//    receiver and no buffer.
//  * The endpoints borrow the record's ports and park them again when they
//    die; while there is no answer half, the live block parks the response
//    port itself. The live block and its answer half are destroyed when
//    the sender reports its close complete (the block is close()'s
//    listener): the FIN and every segment sent, resends included,
//    acknowledged, so no event of the sender is pending, and the receiver
//    has no segment waiting out its stack cost. A kVanish client never
//    closes and keeps them, as does a client whose close never completes;
//    either is destroyed with the client.
//  * It starts at its arrival. start() schedules the arrival event, and
//    the script runs from there on engine events, with no stack of its own
//    (no coroutine frame): the arrival and every answer call advance().
//  * The script is a plain member function (next_step) that books each
//    answer and picks the next request and the wait before it. advance()
//    sends that request at once on a zero wait, or from one event after
//    the wait. So each event is armed at the instant, and in the order, at
//    which a coroutine running the same script would arm its own: a zero
//    sim::Delay arms none, and a finished child coroutine rejoins its
//    parent with none.
//  * One answer outstanding. A client has at most one request in flight, so
//    a waiting flag, the request's send time and the answer are all the
//    answer path needs: no mailbox. The answer's CSeq is checked when it
//    lands, and the client keeps only its status, session id and stream.
//    Its wake-up is a zero-delay event, which books it. An answer that
//    arrives while no request waits is counted in cseq_errors and dropped.
//  * No engine reference: the client reaches the engine through its switch.
//
// Lifetime: a client may be destroyed at any point. Every event it arms,
// its endpoints' included, checks one of its ports before it touches the
// client, and the client holds both ports until it dies. It borrows its
// Config, as it borrows its switch and its media sink: the caller's config
// must outlive the client, so a fleet builds its configs into storage it
// owns (a vector reserved to the fleet's size, or a std::deque) before it
// builds a client from each. A temporary config does not compile.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "apps/client.hpp"
#include "hw/ethernet.hpp"
#include "net/tcplite.hpp"
#include "net/udp.hpp"
#include "session/rtsp.hpp"
#include "sim/engine.hpp"

namespace nistream::session {

class RtspChurnClient {
 public:
  enum class Behavior { kPolite, kSlowStart, kPauseResume, kVanish };

  struct Config {
    Behavior behavior = Behavior::kPolite;
    sim::Time arrival = sim::Time::zero();  // when this client SETUPs
    /// Request URI; a tenant-aware server reads the first path segment as
    /// the tenant name ("rtsp://ni/acme/movie" → tenant "acme"). Empty
    /// names kDefaultUri, with no heap copy of it (session/rtsp.hpp).
    std::string uri;
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

  /// `engine` must be the switch's own. The client borrows `config`, which
  /// must outlive it; a temporary cannot bind. The ports are attached in the
  /// order the endpoints attach their own: the response receiver's first.
  RtspChurnClient([[maybe_unused]] sim::Engine& engine,
                  hw::EthernetSwitch& ether, int control_port,
                  apps::MpegClient& media, int rtcp_port, const Config& config)
      : config_{config}, ether_{ether}, media_{media},
        control_port_{control_port}, rtcp_port_{rtcp_port},
        resp_port_{ether.add_port(&hw::EthernetSwitch::parked)},
        ctl_port_{ether.add_port(&hw::EthernetSwitch::parked)} {
    assert(&engine == &ether.engine());
  }
  RtspChurnClient(sim::Engine&, hw::EthernetSwitch&, int, apps::MpegClient&,
                  int, const Config&&) = delete;

  RtspChurnClient(const RtspChurnClient&) = delete;
  RtspChurnClient& operator=(const RtspChurnClient&) = delete;
  /// The endpoints, if still live, park the ports first; the ports are
  /// detached in the order the endpoints detach their own: the sender's
  /// first.
  ~RtspChurnClient() {
    live_.reset();
    ether_.detach(ctl_port_);
    ether_.detach(resp_port_);
  }

  /// Kick off the scripted lifecycle `config.arrival` from now (returns
  /// immediately; the script runs on the engine). An arrival at or before
  /// now starts the script at once.
  void start() {
    if (config_.arrival <= sim::Time::zero()) {
      arrive();
      return;
    }
    after(config_.arrival, [this] { arrive(); });
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

  static constexpr net::TcpLiteSenderParams kControlParams{
      .window = 8, .max_retx_rounds = 8};

  /// The answer half of the live block, built when the first frame lands
  /// on the response port (see the header comment).
  struct Answer {
    explicit Answer(RtspChurnClient& c)
        : rx{c.ether_, c.resp_port_, net::kHostStackCost,
             net::TcpLiteReceiver::DeliverFrom{
                 [&c](const net::Packet& p, int, sim::Time) {
                   c.on_response_bytes(p);
                 }}} {}

    MessageBuffer buf;
    net::TcpLiteReceiver rx;
    std::uint64_t session = 0;  // the last answer
    int status = 0;
    dwcs::StreamId stream = 0;
  };

  /// The transport, from arrival until the close completes, and the answer
  /// half from the first frame on (see the header comment). It is its
  /// sender's close listener, so the record pays no word for one.
  struct Live final : net::TcpLiteSender::CloseListener {
    explicit Live(RtspChurnClient& c)
        : client{c},
          tx{c.ether_, c.ctl_port_, net::kHostStackCost, c.control_port_,
             kControlParams} {
      c.ether_.rebind(c.resp_port_,
                      [this](const hw::EthFrame& f) { on_first_frame(f); });
    }

    /// The answer half's receiver parks the response port when it dies;
    /// with none, the thunk still holds it.
    ~Live() {
      if (!answer) {
        client.ether_.rebind(client.resp_port_, &hw::EthernetSwitch::parked);
      }
    }

    /// The close is complete: the block goes, unless a segment that landed
    /// on the receiver still waits out its stack cost. A client closes only
    /// after an answer, so the answer half is there.
    void on_closed() override {
      if (answer->rx.idle()) client.live_.reset();  // destroys *this
    }

    /// The thunk, inside the first frame's delivery: build the answer half,
    /// whose receiver takes the port over, and hand it the frame.
    void on_first_frame(const hw::EthFrame& f) {
      answer = std::make_unique<Answer>(client);
      answer->rx.on_frame(f);
    }

    RtspChurnClient& client;
    net::TcpLiteSender tx;
    std::unique_ptr<Answer> answer;  // from the first frame on
    sim::Time sent;          // when the last request was sent
    std::uint32_t cseq = 0;  // requests sent, and the CSeq of the last one
    bool waiting = false;  // the last request is sent and not yet answered
  };

  [[nodiscard]] sim::Engine& engine() const { return ether_.engine(); }

  /// Run `fn` `delay` from now unless the client is gone by then: the event
  /// checks the response port, which the client holds until it dies.
  template <typename Fn>
  void after(sim::Time delay, Fn fn) {
    net::detail::schedule_while_attached(engine(), ether_, resp_port_, delay,
                                         std::move(fn));
  }

  void arrive() {
    live_ = std::make_unique<Live>(*this);
    advance();
  }

  /// Book the answer (none at the arrival) and send the next request: at
  /// once on a zero wait, else from one event after the wait.
  void advance() {
    const Step step = next_step();
    if (step.method == Method::kUnknown) return;
    if (step.wait <= sim::Time::zero()) {
      send_request(step.method);
    } else {
      after(step.wait, [this, method = step.method] { send_request(method); });
    }
  }

  /// The answer's wake-up: the SETUP's latency, then the next request.
  void on_answer() {
    if (live_->cseq == 1) {  // SETUP is always the first request
      outcome_.setup_latency_ms = (engine().now() - live_->sent).to_ms();
    }
    advance();
  }

  void on_response_bytes(const net::Packet& p) {
    Live& live = *live_;
    Answer& answer = *live.answer;
    if (const auto* chunk = static_cast<const std::string*>(p.body.get())) {
      answer.buf.append(*chunk);
    }
    while (auto msg = answer.buf.next()) {
      const auto resp = parse_response(*msg);
      if (!resp) continue;
      if (!live.waiting) {  // nothing asked for this one
        ++outcome_.cseq_errors;
        continue;
      }
      if (resp->cseq != live.cseq) ++outcome_.cseq_errors;
      answer.status = resp->status;
      answer.session = resp->session_id;
      answer.stream = resp->stream;
      live.waiting = false;
      // The wake-up a Semaphore::release would schedule.
      after(sim::Time::zero(), [this] { on_answer(); });
    }
  }

  void send_text(std::string text) {
    net::Packet pkt;
    pkt.bytes = static_cast<std::uint32_t>(text.size());
    pkt.body = std::make_shared<std::string>(std::move(text));
    live_->tx.send(pkt);
  }

  /// Send a `method` request under the next CSeq; its answer wakes
  /// on_answer(). The request text moves into the segment body, so while
  /// the client waits it holds no text.
  void send_request(Method method) {
    Live& live = *live_;
    live.sent = engine().now();
    ++live.cseq;
    if (config_.behavior == Behavior::kSlowStart && method == Method::kSetup) {
      dribble(0);
      return;
    }
    send_text(request_text(method));
    live.waiting = true;
  }

  /// kSlowStart sends the SETUP text in pieces with a gap between segments —
  /// the server sees a request trickling across many TcpLite deliveries.
  /// Each piece from `pos` on is cut from the text rebuilt from the
  /// client's state, which the dribble does not change, so a gap's event
  /// carries only the offset.
  void dribble(std::size_t pos) {
    const std::string text = request_text(Method::kSetup);
    const std::size_t n =
        static_cast<std::size_t>(std::max(config_.slow_start_chunks, 1));
    const std::size_t step = (text.size() + n - 1) / n;
    for (;;) {
      send_text(text.substr(pos, step));
      pos += step;
      if (pos >= text.size()) break;
      if (config_.dribble_gap > sim::Time::zero()) {
        after(config_.dribble_gap, [this, pos] { dribble(pos); });
        return;
      }
    }
    live_->waiting = true;
  }

  /// The text of a `method` request under the current CSeq, built from the
  /// client's own state.
  [[nodiscard]] std::string request_text(Method method) const {
    RtspRequest req;
    req.method = method;
    req.reply_port = resp_port_;
    req.cseq = live_->cseq;
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

  /// The lifecycle script, one call per answer. `cseq` requests have been
  /// answered so far and the last answer is in the answer half: book it,
  /// and return the next request with the wait before it. Requests 1 and 2 are
  /// SETUP and PLAY, kPauseResume then sends PAUSE (3) and PLAY (4), and
  /// every behavior but kVanish ends with TEARDOWN.
  Step next_step() {
    Live& live = *live_;
    const auto finish = [this] {
      outcome_.completed = true;
      return Step{};
    };
    const bool pause_resume = config_.behavior == Behavior::kPauseResume;
    const sim::Time media =
        config_.period * static_cast<std::int64_t>(config_.frames) +
        config_.drain_slack;
    switch (live.cseq) {
      case 0:
        return {sim::Time::zero(), Method::kSetup};
      case 1:  // SETUP answered
        outcome_.responded_setup = true;
        outcome_.setup_status = live.answer->status;
        if (live.answer->status != 200) {
          // 453: over capacity. The polite thing — and what keeps the
          // server's connection table clean — is to FIN the control channel
          // and go away.
          live.tx.close(&live);
          return finish();
        }
        outcome_.admitted = true;
        session_id_ = live.answer->session;
        stream_ = live.answer->stream;
        return {sim::Time::zero(), Method::kPlay};
      case 2:  // PLAY answered
        // Half-open: a vanishing client never speaks again, never closes.
        // The server's reaper owns this session's fate now.
        if (config_.behavior == Behavior::kVanish) return finish();
        if (pause_resume) return {config_.pause_after, Method::kPause};
        return {media, Method::kTeardown};
      case 3:  // PAUSE answered (kPauseResume), else TEARDOWN
        if (!pause_resume) break;
        if (live.answer->status == 200) media_.notify_pause(stream_);
        return {config_.pause_for, Method::kPlay};
      case 4:  // the resuming PLAY answered
        if (live.answer->status == 200) media_.notify_resume(stream_);
        return {media, Method::kTeardown};
      default:
        break;
    }
    media_.notify_end(stream_, engine().now());  // TEARDOWN answered
    live.tx.close(&live);
    return finish();
  }

  const Config& config_;  // the caller's
  hw::EthernetSwitch& ether_;
  apps::MpegClient& media_;
  int control_port_;
  int rtcp_port_;
  int resp_port_;  // the response receiver's, named in Reply-Port
  int ctl_port_;   // the request sender's
  std::unique_ptr<Live> live_;  // from arrival until the close completes
  Outcome outcome_;
  std::uint64_t session_id_ = 0;
  dwcs::StreamId stream_ = 0;
};

}  // namespace nistream::session
