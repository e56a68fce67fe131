// session::RtspFrontDoor — the NI-resident session control plane.
//
// One control task parses RTSP requests off a TcpLite port and drives
// per-session state machines; admitted sessions get a data-plane pump (an
// RTP-tailed synthetic producer into the DWCS ring) on a pooled wind task.
// The layering mirrors the paper's thesis: control traffic terminates on
// the NI, competes with the data plane for the same i960 cycles
// (kCtlPriority vs kPumpPriority vs the dispatch task), and never touches
// the host.
//
// Invariants the churn bench asserts:
//  * Admission is decided at SETUP, and only there. PLAY/PAUSE/TEARDOWN
//    never consult the AdmissionController, so a session that got its 200
//    can always start — post_play_admission_violations counts any pump
//    start that finds no reservation, and must stay 0.
//  * Every reservation is released exactly once, whatever the exit path:
//    TEARDOWN, end of media followed by idle reaping, control-connection
//    FIN, or the reaper collecting a half-open session.
//  * Session ids are incarnation-prefixed; ids minted by an earlier
//    incarnation answer 454, never touch another session's state.
//  * Connections and pumps live in sim::HandleTables. A connection is found
//    by the client's port index and remembers which occupant (port address)
//    it belongs to. The switch recycles ports, so bytes from a newer
//    occupant of a connection's port mean its client is gone: the
//    connection closes as its FIN would have closed it. A session names its
//    pump by table handle, so a finished pump's stale handle never reaches
//    a newer pump in its slot. Both tables hold what is open at once.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dvcm/stream_service.hpp"
#include "dwcs/admission.hpp"
#include "dwcs/monitor.hpp"
#include "hw/ethernet.hpp"
#include "ingress/tenant.hpp"
#include "net/tcplite.hpp"
#include "net/udp.hpp"
#include "path/frame_path.hpp"
#include "path/paths.hpp"
#include "path/rtp_stages.hpp"
#include "rtos/wind.hpp"
#include "session/rtsp.hpp"
#include "session/session.hpp"
#include "sim/coro.hpp"
#include "sim/engine.hpp"
#include "sim/handle_table.hpp"

namespace nistream::session {

class RtspFrontDoor {
 public:
  struct Config {
    std::uint32_t incarnation = 1;
    /// Sessions not in kPlaying and silent this long are reaped (their
    /// reservation released) — half-open teardowns must not leak admission.
    sim::Time idle_timeout = sim::Time::sec(2);
    sim::Time reap_interval = sim::Time::ms(250);
    /// Storm-adaptive reaping: when more than this many sessions sit idle
    /// (non-playing) at once — a connection storm of half-open SETUPs — the
    /// effective idle timeout shrinks proportionally so the admission pool
    /// drains at storm speed instead of leaking for a full idle_timeout.
    /// 0 disables adaptation. Floor below.
    std::size_t reap_storm_threshold = 256;
    sim::Time min_idle_timeout = sim::Time::ms(100);
  };

  /// wind priorities (0 most urgent). Control runs below the pumps and the
  /// dispatch task: under load, accepted streams keep their deadlines while
  /// new SETUPs queue — the paper's "data plane first" ordering.
  static constexpr int kCtlPriority = 140;
  static constexpr int kPumpPriority = 120;
  /// Request-processing CPU: a fixed per-message cost plus a per-byte parse
  /// cost, charged to the control task.
  static constexpr std::int64_t kRequestCycles = 1500;
  static constexpr std::int64_t kParseCyclesPerByte = 4;
  /// The RTP tail: header build on the NI CPU, and the RTCP report period.
  static constexpr std::int64_t kRtpCyclesPerPacket = 700;
  static constexpr sim::Time kRtcpInterval = sim::Time::ms(500);
  /// Response channel back to each client: bounded retransmit so a vanished
  /// client cannot pin a response sender forever.
  static constexpr net::TcpLiteSenderParams kResponseParams{
      .window = 8, .max_retx_rounds = 8};

  /// A session's data plane: an ordinary producer path (path/paths.hpp)
  /// with an RTP tail spliced in between segmentation and the ring, all on
  /// one NI task, with no storage stage (churn workloads stress session
  /// lifecycle, not disk mechanics):
  ///
  ///   segment -> rtp -> rtcp -> enqueue
  ///
  /// The packetizer charges the pump's CPU and grows the frame by the RTP
  /// header; the RTCP stage piggybacks sender reports onto the frame clock
  /// over a side UDP port. DWCS paces RTP-framed packets exactly as it paces
  /// raw ones: session control composes onto the datapath, not a fork of it.
  static path::FramePath session_path(sim::Engine& engine, rtos::Task& task,
                                      dvcm::StreamService& service,
                                      path::RtpState& rtp,
                                      net::UdpEndpoint& rtcp_out,
                                      int rtcp_port) {
    path::FramePath p{engine, "session-synthetic"};
    p.stage<path::SegmentStage<rtos::Task>>(task,
                                            path::kSegmentationCyclesPerFrame)
        .stage<path::RtpPacketizeStage<rtos::Task>>(task, rtp,
                                                    kRtpCyclesPerPacket)
        .stage<path::RtcpReportStage>(engine, rtcp_out, rtcp_port, rtp,
                                      kRtcpInterval)
        .stage<path::EnqueueStage>(engine, service);
    return p;
  }

  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t bad_requests = 0;       // 400s
    std::uint64_t setups_ok = 0;
    std::uint64_t rejected_453 = 0;       // admission denials (all causes)
    std::uint64_t tenant_rejected_453 = 0;  // of those: tenant budget denials
    std::uint64_t plays = 0;              // cold PLAY (pump started)
    std::uint64_t resumes = 0;            // PLAY on a paused session
    std::uint64_t pauses = 0;
    std::uint64_t teardowns = 0;
    std::uint64_t stale_454 = 0;
    std::uint64_t bad_state_455 = 0;
    std::uint64_t reaped_idle = 0;        // sessions the reaper collected
    std::uint64_t conn_closed = 0;        // sessions closed by control FIN
    std::uint64_t eos = 0;                // pumps that ran the media dry
    std::uint64_t frames_pumped = 0;
    /// Pump starts that found no SETUP-time reservation. Structurally zero:
    /// the bench's acceptance gate.
    std::uint64_t post_play_admission_violations = 0;
  };

  /// SETUP resolves the tenant from the request URI's first path segment
  /// in `tenants`, enforces that tenant's admission share on top of the
  /// global controller, and keys `monitor` by (tenant, stream) so
  /// per-tenant QoS is separable. A server with no named tenants puts every
  /// stream in the default tenant, which only the global controller bounds.
  RtspFrontDoor(sim::Engine& engine, hw::EthernetSwitch& ether,
                rtos::WindKernel& kernel, dvcm::StreamService& service,
                net::UdpEndpoint& rtp_out,
                dwcs::AdmissionController& admission,
                dwcs::WindowViolationMonitor& monitor,
                ingress::TenantDirectory& tenants, Config config)
      : engine_{engine}, ether_{ether}, kernel_{kernel}, service_{service},
        rtp_out_{rtp_out}, admission_{admission}, monitor_{monitor},
        tenants_{tenants}, config_{config}, inbox_{engine},
        ctl_rx_{engine, ether, net::kNiStackCost,
                net::TcpLiteReceiver::DeliverFrom{
                    [this](const net::Packet& p, int peer, sim::Time at) {
                      on_ctl_bytes(p, peer, at);
                    }}},
        ctl_task_{kernel.spawn("rtsp-ctl", kCtlPriority)} {
    ctl_rx_.set_on_peer_close(
        [this](int peer, sim::Time) { on_conn_close(peer); });
    control_loop().detach();
    reaper().detach();
  }

  RtspFrontDoor(const RtspFrontDoor&) = delete;
  RtspFrontDoor& operator=(const RtspFrontDoor&) = delete;

  /// The TcpLite port clients SETUP against.
  [[nodiscard]] int control_port() const { return ctl_rx_.port(); }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t live_sessions() const { return sessions_.size(); }
  [[nodiscard]] std::size_t live_pumps() const { return pumps_.live_count(); }
  [[nodiscard]] std::size_t connections() const { return conns_.live_count(); }
  /// Slots in the pump and connection tables: the most ever live at once.
  [[nodiscard]] std::size_t pump_table_size() const { return pumps_.size(); }
  [[nodiscard]] std::size_t connection_table_size() const {
    return conns_.size();
  }
  [[nodiscard]] std::uint32_t incarnation() const {
    return config_.incarnation;
  }
  [[nodiscard]] const net::TcpLiteReceiver& control_rx() const {
    return ctl_rx_;
  }

  /// Idle timeout the reaper applies when `idle_depth` sessions sit
  /// non-playing at once. At or below the storm threshold it is the
  /// configured idle_timeout; past it the timeout shrinks in proportion to
  /// the overload (2x the threshold of half-open sessions → half the
  /// timeout), floored at min_idle_timeout so a brief legitimate pause is
  /// never collected instantly. Exposed for the storm-then-reap test.
  [[nodiscard]] sim::Time effective_idle_timeout(std::size_t idle_depth) const {
    if (config_.reap_storm_threshold == 0 ||
        idle_depth <= config_.reap_storm_threshold) {
      return config_.idle_timeout;
    }
    const double scaled =
        config_.idle_timeout.to_us() *
        static_cast<double>(config_.reap_storm_threshold) /
        static_cast<double>(idle_depth);
    sim::Time floor = config_.min_idle_timeout;
    if (config_.idle_timeout < floor) floor = config_.idle_timeout;
    const sim::Time eff = sim::Time::us(scaled);
    return eff < floor ? floor : eff;
  }

 private:
  /// One control connection: reassembly buffer, where responses go, and the
  /// sessions it owns (so a FIN tears them all down).
  struct Connection {
    MessageBuffer buf;
    int peer = -1;  // the client's sending port address
    int reply_port = -1;
    std::unique_ptr<net::TcpLiteSender> tx;
    std::vector<std::uint64_t> sessions;
  };

  /// A live pump: the session path, its gate, and the RTP state that must
  /// survive PAUSE/PLAY. The pump coroutine holds a pointer to it across
  /// suspensions, which the table's pages keep valid until it is erased.
  struct PumpContext {
    path::FramePath path;
    path::PathStats stats;
    path::PumpGate gate;
    path::RtpState rtp;
    explicit PumpContext(sim::Engine& engine)
        : path{engine}, gate{engine} {}
  };

  struct Pending {
    int peer;
    std::string text;
  };

  void on_ctl_bytes(const net::Packet& p, int peer, sim::Time) {
    // Control bytes ride in the packet body as a string chunk; bytes-on-wire
    // charging already happened in TcpLite. Reassemble per connection, then
    // hand complete messages to the control task.
    Connection& conn = connection(peer);
    if (const auto* chunk =
            static_cast<const std::string*>(p.body.get())) {
      conn.buf.append(*chunk);
    }
    while (auto msg = conn.buf.next()) {
      inbox_.send(Pending{peer, std::move(*msg)});
    }
  }

  /// The connection slot of the client on port index `key`, or kNone.
  [[nodiscard]] std::uint32_t conn_at(std::uint32_t key) const {
    return key < conn_of_port_.size() ? conn_of_port_[key] : kNone;
  }

  /// The connection of the client at `peer`, made on first use. A
  /// connection of an earlier occupant of that port is closed first.
  Connection& connection(int peer) {
    const std::uint32_t key = hw::EthernetSwitch::index_of(peer);
    if (key >= conn_of_port_.size()) {
      conn_of_port_.resize(ether_.port_table_size(), kNone);
    }
    if (superseded(peer)) close_connection(key);
    std::uint32_t& c = conn_of_port_[key];
    if (c == kNone) c = conns_.emplace(Connection{.peer = peer});
    return conns_[c];
  }

  /// A newer occupant holds `peer`'s port: that client and its connection
  /// are gone.
  [[nodiscard]] bool superseded(int peer) const {
    const std::uint32_t c = conn_at(hw::EthernetSwitch::index_of(peer));
    return c != kNone && conns_[c].peer != peer;
  }

  void on_conn_close(int peer) {
    // A FIN lands after every segment of its connection, and a newer
    // occupant's segments after the FIN, so the entry is this connection or
    // an earlier occupant's; either way it is over.
    const std::uint32_t key = hw::EthernetSwitch::index_of(peer);
    if (conn_at(key) != kNone) close_connection(key);
  }

  void close_connection(std::uint32_t key) {
    // Close every session the connection owns — the client FIN'd without
    // TEARDOWN (or after it; then the list is already empty).
    const std::uint32_t c = conn_of_port_[key];
    const std::vector<std::uint64_t> owned = std::move(conns_[c].sessions);
    for (const std::uint64_t sid : owned) {
      if (sessions_.contains(sid)) {
        close_session(sid);
        ++stats_.conn_closed;
      }
    }
    conn_of_port_[key] = kNone;
    conns_.erase(c);
  }

  sim::Coro control_loop() {
    for (;;) {
      Pending p = co_await inbox_.receive();
      ++stats_.requests;
      co_await ctl_task_.consume_cycles(
          kRequestCycles +
          kParseCyclesPerByte * static_cast<std::int64_t>(p.text.size()));
      // A newer client on the sender's port closed this one's connection
      // while the request waited: there is no one left to answer.
      if (superseded(p.peer)) continue;
      // Learn the response destination even from requests that won't parse:
      // the 400 still has to reach the client.
      if (const auto rp = find_reply_port(p.text)) {
        connection(p.peer).reply_port = *rp;
      }
      const auto req = parse_request(p.text);
      if (!req) {
        ++stats_.bad_requests;
        respond(p.peer, RtspResponse{.status = 400});
        continue;
      }
      handle(p.peer, *req);
    }
  }

  void handle(int peer, const RtspRequest& req) {
    switch (req.method) {
      case Method::kSetup: return handle_setup(peer, req);
      case Method::kPlay: return handle_play(peer, req);
      case Method::kPause: return handle_pause(peer, req);
      case Method::kTeardown: return handle_teardown(peer, req);
      case Method::kUnknown: break;
    }
    ++stats_.bad_requests;
    respond(peer, RtspResponse{.status = 400, .cseq = req.cseq});
  }

  void handle_setup(int peer, const RtspRequest& req) {
    // RTP framing rides every dispatched packet, so the reservation must
    // cover it — this is the one place control and admission meet.
    const dwcs::AdmissionController::Request adm{
        .tolerance = req.tolerance,
        .period = req.period,
        .mean_frame_bytes = req.frame_bytes + path::kRtpHeaderBytes};
    // Tenant budget first: a tenant over its share is denied even while the
    // NI as a whole has headroom — that is the flood-isolation contract.
    const ingress::TenantId tid =
        tenants_.resolve(ingress::tenant_from_uri(req.uri));
    const double link = admission_.link_load(adm);
    const double cpu = admission_.cpu_load(adm);
    if (!tenants_.would_admit(tid, link, cpu, admission_.headroom())) {
      tenants_.note_rejected(tid);
      ++stats_.rejected_453;
      ++stats_.tenant_rejected_453;
      respond(peer, RtspResponse{.status = 453, .cseq = req.cseq});
      return;
    }
    if (!admission_.admit(adm)) {
      ++stats_.rejected_453;
      respond(peer, RtspResponse{.status = 453, .cseq = req.cseq});
      return;
    }
    tenants_.reserve(tid, link, cpu);
    const std::uint64_t sid =
        make_session_id(config_.incarnation, ++session_counter_);
    Session s;
    s.id = sid;
    s.ctl_peer = peer;
    s.tenant = tid;
    s.adm = adm;
    s.rtp_port = req.rtp_port;
    s.rtcp_port = req.rtcp_port;
    s.frame_bytes = req.frame_bytes;
    s.period = req.period;
    s.frames = req.frames;
    s.last_activity = engine_.now();
    s.stream = service_.create_stream(
        dwcs::StreamParams{
            .tolerance = req.tolerance, .period = req.period, .lossy = true},
        req.rtp_port);
    tenants_.bind_stream(s.stream, tid);
    monitor_.add_stream({tid, s.stream}, req.tolerance);
    connection(peer).sessions.push_back(sid);
    sessions_.emplace(sid, s);
    ++stats_.setups_ok;
    respond(peer, RtspResponse{.status = 200,
                               .cseq = req.cseq,
                               .session_id = sid,
                               .stream = s.stream,
                               .has_stream = true});
  }

  void handle_play(int peer, const RtspRequest& req) {
    Session* s = find(req.session_id);
    if (s == nullptr) return stale(peer, req);
    s->last_activity = engine_.now();
    if (s->state == SessionState::kPlaying) {
      ++stats_.bad_state_455;
      respond(peer, RtspResponse{
                        .status = 455, .cseq = req.cseq,
                        .session_id = s->id});
      return;
    }
    if (s->paused && s->pump_id) {
      // Resume the parked pump; sequence/timestamp continue where they were.
      pumps_[s->pump_id.index].gate.resume();
      s->paused = false;
      s->state = SessionState::kPlaying;
      ++stats_.resumes;
    } else {
      start_pump(*s);
      ++stats_.plays;
    }
    respond(peer, RtspResponse{
                      .status = 200, .cseq = req.cseq, .session_id = s->id});
  }

  void handle_pause(int peer, const RtspRequest& req) {
    Session* s = find(req.session_id);
    if (s == nullptr) return stale(peer, req);
    s->last_activity = engine_.now();
    if (s->state != SessionState::kPlaying || !s->pump_id) {
      // PAUSE on a Ready session (never played, already paused, or media
      // done) is a state error per §A.1.
      ++stats_.bad_state_455;
      respond(peer, RtspResponse{
                        .status = 455, .cseq = req.cseq,
                        .session_id = s->id});
      return;
    }
    pumps_[s->pump_id.index].gate.pause();
    s->state = SessionState::kReady;
    s->paused = true;
    ++stats_.pauses;
    respond(peer, RtspResponse{
                      .status = 200, .cseq = req.cseq, .session_id = s->id});
  }

  void handle_teardown(int peer, const RtspRequest& req) {
    Session* s = find(req.session_id);
    if (s == nullptr) return stale(peer, req);
    const std::uint64_t cseq = req.cseq;
    const std::uint64_t sid = s->id;
    close_session(sid);
    ++stats_.teardowns;
    respond(peer,
            RtspResponse{.status = 200, .cseq = cseq, .session_id = sid});
  }

  void stale(int peer, const RtspRequest& req) {
    ++stats_.stale_454;
    respond(peer, RtspResponse{.status = 454, .cseq = req.cseq});
  }

  [[nodiscard]] Session* find(std::uint64_t sid) {
    if (incarnation_of(sid) != config_.incarnation) return nullptr;
    const auto it = sessions_.find(sid);
    return it == sessions_.end() ? nullptr : &it->second;
  }

  void respond(int peer, const RtspResponse& resp) {
    Connection& conn = connection(peer);
    if (conn.reply_port < 0) return;  // nowhere to answer; client is mute
    if (!conn.tx) {
      conn.tx = std::make_unique<net::TcpLiteSender>(
          engine_, ether_, net::kNiStackCost, conn.reply_port,
          kResponseParams);
    }
    if (conn.tx->closing() || conn.tx->aborted()) return;
    auto text = std::make_shared<std::string>(format_response(resp));
    net::Packet pkt;
    pkt.bytes = static_cast<std::uint32_t>(text->size());
    pkt.body = std::move(text);
    conn.tx->send(pkt);
  }

  void start_pump(Session& s) {
    if (s.stream == dwcs::kInvalidStream) {
      // No SETUP-time reservation backs this PLAY. Cannot happen by
      // construction; counted so the bench can assert it stayed impossible.
      ++stats_.post_play_admission_violations;
      return;
    }
    const std::uint32_t i = pumps_.emplace(engine_);
    const sim::Handle pid{i, pumps_.generation(i)};
    // A pump slot keeps its wind task: the table hands slots back in the
    // order their pumps finished, as a free list of tasks would.
    if (i == pump_tasks_.size()) {
      pump_tasks_.push_back(&kernel_.spawn(
          "rtsp-pump-" + std::to_string(i + 1), kPumpPriority));
    }
    PumpContext& ctx = pumps_[i];
    ctx.rtp.ssrc = static_cast<std::uint32_t>(s.id ^ (s.id >> 32));
    ctx.path = session_path(engine_, *pump_tasks_[i], service_, ctx.rtp,
                            rtp_out_, s.rtcp_port);
    s.pump_id = pid;
    s.state = SessionState::kPlaying;
    s.ever_played = true;
    s.paused = false;
    pump_wrapper(s.id, pid, &ctx, s.frames, s.frame_bytes, s.stream, s.period)
        .detach();
  }

  sim::Coro pump_wrapper(std::uint64_t sid, sim::Handle pid,
                         PumpContext* ctx, std::uint64_t frames,
                         std::uint32_t bytes, dwcs::StreamId stream,
                         sim::Time period) {
    auto source = path::fixed_frame_source(frames, bytes, {}, stream,
                                           path::Provenance::kSynthetic);
    co_await path::pump(
        ctx->path, std::move(source),
        path::Pacing{.burst_frames = 1,
                     .gap = period,
                     .where = path::Pacing::Where::kBeforeFrame,
                     .grid = true},
        ctx->stats, {}, &ctx->gate);
    on_pump_done(sid, pid);
    // Past this point the coroutine frame must touch only locals: the
    // PumpContext was just destroyed.
  }

  void on_pump_done(std::uint64_t sid, sim::Handle pid) {
    if (!pumps_.live(pid.index, pid.generation)) return;
    stats_.frames_pumped += pumps_[pid.index].stats.frames_produced;
    pumps_.erase(pid.index);
    const auto sit = sessions_.find(sid);
    if (sit != sessions_.end() && sit->second.pump_id == pid) {
      sit->second.pump_id = {};
      if (sit->second.state == SessionState::kPlaying) {
        // Media ran dry (not a stop): back to Ready until TEARDOWN or reap.
        sit->second.state = SessionState::kReady;
        ++stats_.eos;
      }
      sit->second.paused = false;
      sit->second.last_activity = engine_.now();
    }
  }

  /// Tear down one session: stop its pump (the pump's own completion path
  /// does the context bookkeeping), release the reservation, purge its ring
  /// backlog, and forget it. The dense scheduler stream id itself is never
  /// reused — create_stream ids are append-only, as everywhere else.
  void close_session(std::uint64_t sid) {
    const auto it = sessions_.find(sid);
    if (it == sessions_.end()) return;
    Session& s = it->second;
    if (s.pump_id) pumps_[s.pump_id.index].gate.stop();
    admission_.release(s.adm);
    tenants_.release(s.tenant, admission_.link_load(s.adm),
                     admission_.cpu_load(s.adm));
    // Retire BEFORE purging: the frames the purge drops (and any final
    // in-flight frame the stopping pump still enqueues) were abandoned by
    // the closing client — they are churn cost, not a scheduling miss.
    monitor_.retire({s.tenant, s.stream});
    service_.scheduler().purge_stream(s.stream);
    const std::uint32_t c = conn_at(hw::EthernetSwitch::index_of(s.ctl_peer));
    if (c != kNone && conns_[c].peer == s.ctl_peer) {
      std::erase(conns_[c].sessions, sid);
    }
    sessions_.erase(it);
  }

  /// Collect sessions that are not playing and have been silent past the
  /// idle timeout: half-open clients (vanished after SETUP or after their
  /// media finished) must not hold admission share forever. The threshold
  /// adapts to storm depth: a SYN-flood of half-open SETUPs shows up as a
  /// deep idle population, and the deeper it is, the faster each member
  /// times out (effective_idle_timeout above).
  sim::Coro reaper() {
    for (;;) {
      co_await sim::Delay{engine_, config_.reap_interval};
      std::size_t idle_depth = 0;
      for (const auto& [sid, s] : sessions_) {
        idle_depth += s.state != SessionState::kPlaying;
      }
      const sim::Time timeout = effective_idle_timeout(idle_depth);
      reap_scratch_.clear();
      for (const auto& [sid, s] : sessions_) {
        if (s.state == SessionState::kPlaying) continue;
        if (engine_.now() - s.last_activity >= timeout) {
          reap_scratch_.push_back(sid);
        }
      }
      for (const std::uint64_t sid : reap_scratch_) {
        close_session(sid);
        ++stats_.reaped_idle;
      }
    }
  }

  sim::Engine& engine_;
  hw::EthernetSwitch& ether_;
  rtos::WindKernel& kernel_;
  dvcm::StreamService& service_;
  net::UdpEndpoint& rtp_out_;
  dwcs::AdmissionController& admission_;
  dwcs::WindowViolationMonitor& monitor_;
  ingress::TenantDirectory& tenants_;
  Config config_;
  Stats stats_;
  sim::Mailbox<Pending> inbox_;
  net::TcpLiteReceiver ctl_rx_;
  rtos::Task& ctl_task_;
  static constexpr std::uint32_t kNone = sim::Handle::kNone;
  sim::HandleTable<Connection> conns_;
  std::vector<std::uint32_t> conn_of_port_;  // client port index -> conns_
  // A std::map: the reaper walks sessions in id order, and that order is
  // what makes a same-seed churn replay byte-identical.
  std::map<std::uint64_t, Session> sessions_;
  sim::HandleTable<PumpContext> pumps_;
  std::vector<rtos::Task*> pump_tasks_;  // by pump slot
  std::vector<std::uint64_t> reap_scratch_;
  std::uint32_t session_counter_ = 0;
};

}  // namespace nistream::session
