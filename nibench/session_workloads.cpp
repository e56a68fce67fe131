// The two session-plane workloads: setup_storm and steady_play.
//
// Both boot one session::SessionServer on a simulated switch and fire a
// seeded fleet of session::RtspChurnClient scripts at it; the RTP data plane
// lands on one apps::MpegClient. Clients arrive open-loop: each arrival is
// an engine event, so the generator cannot fall behind.
//
// Host clock: building the server and the fleet is `setup_s`; starting the
// fleet and running the engine to the horizon is `wall_s`. Each batch is
// the whole fleet; batches repeat until --seconds have passed and the
// medians are reported.
//
// Traced runs advance the engine with public Engine::step() calls until a
// sentinel event (scheduled with schedule_at, first thing, in every run)
// marks the horizon. Each step is timed and charged to the highest layer
// whose public counter it advanced (see attribute() below).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/client.hpp"
#include "common.hpp"
#include "path/rtp_stages.hpp"
#include "session/client.hpp"
#include "session/rtsp.hpp"
#include "session/server.hpp"
#include "sim/coro.hpp"

namespace nibench {
namespace {

using namespace nistream;
using Behavior = session::RtspChurnClient::Behavior;

struct Workload {
  session::SessionServer::Config server;
  std::vector<session::RtspChurnClient::Config> clients;
  sim::Time horizon;
  /// steady_play gates: every client script runs to its end, everything
  /// is released at the horizon, and at most this many frames may land per
  /// PAUSE (ring + in-flight allowance). The storm's admitted sessions wait
  /// behind the SETUP backlog and are reaped before they PLAY, so there a
  /// lifecycle fails only when it is unanswered or gets a CSeq error.
  bool drained_at_horizon = false;
  std::uint64_t paused_frames_per_pause = 0;
  /// The unit of `sim_ops_per_s`: SETUP answers per simulated second over
  /// the span from first arrival to last answer (the control task's
  /// throughput), or media frames delivered per simulated second.
  bool ops_are_setups = false;
};

/// 100k polite clients arriving uniformly in a 2 s window (~50k SETUP/s)
/// against one server: the 100k storm cell of the session churn sweep,
/// drawn in the same order (behaviour, arrival, frame count per client).
Workload make_setup_storm(const Options& o) {
  Workload w;
  w.horizon = sim::Time::sec(45);
  w.ops_are_setups = true;
  w.server.door.idle_timeout = sim::Time::ms(500);
  w.server.door.reap_interval = sim::Time::ms(125);
  const std::size_t n = o.smoke ? 2000 : 100'000;
  const std::uint64_t window_us = 2'000'000;
  std::uint64_t rng = o.seed;
  w.clients.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    session::RtspChurnClient::Config c;
    (void)splitmix64(rng);  // behaviour draw: the storm is all polite
    c.behavior = Behavior::kPolite;
    c.arrival = sim::Time::us(static_cast<double>(splitmix64(rng) % window_us));
    c.frames = 4 + splitmix64(rng) % 8;
    c.period = sim::Time::ms(10);
    w.clients.push_back(c);
  }
  return w;
}

/// Long-lived 30 fps x 1000 B sessions offered at 95% of what admission
/// admits; 10% pause and resume, 10% vanish after PLAY.
Workload make_steady_play(const Options& o) {
  Workload w;
  w.horizon = o.smoke ? sim::Time::sec(10) : sim::Time::sec(75);
  w.drained_at_horizon = true;
  w.paused_frames_per_pause = w.server.service.scheduler.ring_capacity + 2;

  const sim::Time period = sim::Time::sec(1.0 / 30);
  const std::uint32_t frame_bytes = 1000;
  const dwcs::WindowConstraint tolerance{1, 4};
  dwcs::AdmissionController probe{w.server.cal.ethernet.bits_per_sec / 8.0,
                                  w.server.per_frame_cpu,
                                  w.server.admission_headroom};
  const dwcs::AdmissionController::Request req{
      .tolerance = tolerance,
      .period = period,
      .mean_frame_bytes = frame_bytes + path::kRtpHeaderBytes};
  std::size_t limit = 0;
  while (probe.admit(req)) ++limit;
  const std::size_t n = limit * 95 / 100;

  const std::uint64_t window_us = o.smoke ? 1'000'000 : 5'000'000;
  std::uint64_t rng = o.seed ^ 0x57EAD9u;
  w.clients.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    session::RtspChurnClient::Config c;
    const std::uint64_t r = splitmix64(rng) % 100;
    c.behavior = r < 10   ? Behavior::kPauseResume
                 : r < 20 ? Behavior::kVanish
                          : Behavior::kPolite;
    c.arrival = sim::Time::us(static_cast<double>(splitmix64(rng) % window_us));
    c.frames = o.smoke ? 90 : 1800;
    c.period = period;
    c.frame_bytes = frame_bytes;
    c.tolerance = tolerance;
    // TEARDOWN follows end of media by pause_after + drain_slack, which
    // must stay under the 2 s idle timeout or the reaper gets there first.
    c.pause_after = o.smoke ? sim::Time::ms(500) : sim::Time::sec(1);
    c.pause_for = o.smoke ? sim::Time::ms(500) : sim::Time::sec(2);
    w.clients.push_back(c);
  }
  return w;
}

/// Public counters of each layer, summed per layer. Read once per traced
/// step, so every field is a plain accessor.
struct Counters {
  std::uint64_t apps = 0;       // MpegClient frames + pause/resume notes, RTCP
  std::uint64_t session = 0;    // RtspFrontDoor::Stats
  std::uint64_t cpu_cycles = 0;  // NI CpuModel cycles (DWCS cost hook)
  std::uint64_t dvcm = 0;       // StreamService dispatches + ring rejects
  std::uint64_t decisions = 0;  // DwcsScheduler::decisions()
  std::uint64_t net = 0;        // the control port's TcpLiteReceiver
  std::uint64_t hw = 0;         // EthernetSwitch bytes + losses
};

/// The highest layer a step advanced: apps, session, dvcm, dwcs, path,
/// net, hw, else sim. The path layer has no per-frame public counter, so NI
/// CPU cycles charged by a step that neither dispatched nor decided stand
/// for it: those are the ring enqueues of the path's EnqueueStage.
int attribute(const Counters& a, const Counters& b) {
  if (b.apps != a.apps) return kApps;
  if (b.session != a.session) return kSession;
  if (b.dvcm != a.dvcm) return kDvcm;
  if (b.decisions != a.decisions) return kDwcs;
  if (b.cpu_cycles != a.cpu_cycles) return kPath;
  if (b.net != a.net) return kNet;
  if (b.hw != a.hw) return kHw;
  return kSim;
}

struct StepTrace {
  std::int64_t self_ns[kLayers] = {};
  std::size_t pending_peak = 0;
  std::size_t live_peak = 0;
  double wall_s = 0;
};

/// Everything one batch produced on the simulated clock, plus its gates.
struct Outcome {
  std::uint64_t fingerprint = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed_lifecycles = 0;
  std::vector<std::pair<std::string, bool>> checks;

  std::vector<double> setup_ms;  // sorted
  std::uint64_t setups_ok = 0;
  std::uint64_t frames_delivered = 0;
  double ops_per_s = 0;
  double frame_ms_mean = 0;
  double frame_ms_max = 0;
  double violation_rate = 0;
  std::uint64_t violating_windows = 0;

  std::uint64_t events = 0;
  std::uint64_t coro_frames = 0;
  std::uint64_t coro_fresh_blocks = 0;
  std::uint64_t ctl_delivered = 0;
  std::uint64_t ctl_out_of_order = 0;
  std::uint64_t ctl_peers = 0;
  std::uint64_t ether_bytes = 0;
  std::uint64_t ether_frames_lost = 0;
  double ni_cpu_busy_share = 0;
  session::RtspFrontDoor::Stats door;
  std::uint64_t dispatched = 0;
  std::uint64_t ring_full_rejects = 0;
  std::uint64_t decisions = 0;
  std::uint64_t frames_while_paused = 0;
  std::uint64_t media_bytes = 0;
};

class Rig {
 public:
  explicit Rig(const Workload& w)
      : sentinel_{engine_.schedule_at(w.horizon + sim::Time::ns(1),
                                      [this] { horizon_reached_ = true; })},
        ether_{engine_},
        server_{engine_, ether_, w.server},
        media_{engine_, ether_},
        rtcp_sink_{engine_, ether_, net::kHostStackCost,
                   [this](const net::Packet&, sim::Time) { ++rtcp_reports_; }} {
    clients_.reserve(w.clients.size());
    for (const auto& c : w.clients) {
      clients_.push_back(std::make_unique<session::RtspChurnClient>(
          engine_, ether_, server_.control_port(), media_, rtcp_sink_.port(),
          c));
    }
  }

  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  void start() {
    for (auto& c : clients_) c->start();
  }

  void run(const Workload& w) { engine_.run_until(w.horizon); }

  void run_traced(StepTrace& t) {
    Counters prev = counters();
    while (!horizon_reached_) {
      const auto t0 = Clock::now();
      if (!engine_.step()) break;
      const auto t1 = Clock::now();
      const Counters cur = counters();
      t.self_ns[attribute(prev, cur)] += ns_between(t0, t1);
      prev = cur;
      t.pending_peak = std::max(t.pending_peak, engine_.pending_events());
      t.live_peak = std::max(t.live_peak, server_.door().live_sessions());
    }
  }

  [[nodiscard]] Outcome collect(const Workload& w,
                                const sim::detail::CoroPoolStats& pool0) {
    Outcome out;
    Fingerprint fp;
    const std::size_t n = clients_.size();
    out.attempted = n;
    std::uint64_t responded = 0;
    std::uint64_t cseq_errors = 0;
    out.setup_ms.reserve(n);
    double first_arrival_ms = w.horizon.to_ms();
    double last_answer_ms = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto& c = clients_[i];
      const auto& o = c->outcome();
      if (o.responded_setup) {
        ++responded;
        out.setup_ms.push_back(o.setup_latency_ms);
        const double arrival_ms = w.clients[i].arrival.to_ms();
        first_arrival_ms = std::min(first_arrival_ms, arrival_ms);
        last_answer_ms =
            std::max(last_answer_ms, arrival_ms + o.setup_latency_ms);
      }
      cseq_errors += o.cseq_errors;
      if (!o.responded_setup || o.cseq_errors != 0 ||
          (w.drained_at_horizon && !o.completed)) {
        ++out.failed_lifecycles;
      }
      fp.add(static_cast<std::uint64_t>(o.setup_status));
      fp.add_double(o.setup_latency_ms);
      fp.add(o.admitted ? 1 : 0);
      fp.add(o.completed ? 1 : 0);
      fp.add(o.cseq_errors);
      fp.add(c->session_id());
    }
    std::sort(out.setup_ms.begin(), out.setup_ms.end());

    auto& door = server_.door();
    out.door = door.stats();
    const auto& st = out.door;
    out.setups_ok = st.setups_ok;
    out.frames_delivered = media_.total_frames();
    out.media_bytes = media_.total_bytes();
    out.ops_per_s =
        w.ops_are_setups
            ? static_cast<double>(responded) * 1e3 /
                  std::max(last_answer_ms - first_arrival_ms, 1e-9)
            : static_cast<double>(out.frames_delivered) / w.horizon.to_sec();
    out.frame_ms_mean = media_.latency_ms().mean();
    out.frame_ms_max = media_.latency_ms().max();
    out.violation_rate = server_.monitor().aggregate_violation_rate();
    out.violating_windows = server_.monitor().total_violating_windows();
    out.frames_while_paused = media_.frames_while_paused();

    // The sentinel fires only when the engine is stepped past the horizon.
    out.events = engine_.events_executed() - (horizon_reached_ ? 1 : 0);
    const auto pool = sim::coro_pool_stats();
    out.coro_frames = pool.frames - pool0.frames;
    out.coro_fresh_blocks = pool.fresh_blocks - pool0.fresh_blocks;
    const auto& rx = door.control_rx();
    out.ctl_delivered = rx.delivered();
    out.ctl_out_of_order = rx.discarded_out_of_order();
    out.ctl_peers = rx.peer_count();
    out.ether_bytes = ether_.bytes_switched();
    out.ether_frames_lost = ether_.frames_lost();
    auto& kernel = server_.kernel();
    out.ni_cpu_busy_share =
        kernel.ni_cpu_busy().to_sec() /
        (w.horizon.to_sec() * static_cast<double>(kernel.num_cores()));
    auto& service = server_.service();
    out.dispatched = service.dispatched();
    out.ring_full_rejects = service.rejected_ring_full();
    out.decisions = service.scheduler().decisions();

    for (const std::uint64_t v :
         {st.requests, st.bad_requests, st.setups_ok, st.rejected_453,
          st.plays, st.resumes, st.pauses, st.teardowns, st.stale_454,
          st.bad_state_455, st.reaped_idle, st.conn_closed, st.eos,
          st.frames_pumped, st.post_play_admission_violations,
          out.frames_delivered, out.media_bytes, out.frames_while_paused,
          out.violating_windows, out.events, out.coro_frames,
          out.ctl_delivered, out.ctl_out_of_order, out.ctl_peers,
          out.ether_bytes, out.ether_frames_lost, out.dispatched,
          out.ring_full_rejects, out.decisions, rtcp_reports_,
          media_.pauses(), media_.resumes(),
          static_cast<std::uint64_t>(kernel.ni_cpu_busy().raw_ns()),
          server_.admission().admitted(),
          static_cast<std::uint64_t>(door.live_sessions()),
          static_cast<std::uint64_t>(door.live_pumps())}) {
      fp.add(v);
    }
    fp.add_double(out.ops_per_s);
    fp.add_double(out.frame_ms_mean);
    fp.add_double(out.frame_ms_max);
    fp.add_double(out.violation_rate);
    fp.add_double(server_.monitor().max_violation_rate());
    out.fingerprint = fp.h;

    auto& ch = out.checks;
    ch.emplace_back("every client answered", responded == n);
    ch.emplace_back("setups_ok + rejected_453 == clients",
                    st.setups_ok + st.rejected_453 == n);
    ch.emplace_back("no post-PLAY admission violations",
                    st.post_play_admission_violations == 0);
    ch.emplace_back("no CSeq errors", cseq_errors == 0);
    ch.emplace_back("media reached the client", out.frames_delivered > 0);
    if (w.drained_at_horizon) {
      const auto& adm = server_.admission();
      ch.emplace_back("no live sessions or pumps at the horizon",
                      door.live_sessions() == 0 && door.live_pumps() == 0);
      ch.emplace_back("every reservation released exactly once",
                      adm.admitted() == 0 &&
                          std::abs(adm.cpu_utilization()) < 1e-9 &&
                          std::abs(adm.link_utilization()) < 1e-9);
      ch.emplace_back("paused streams stay within the in-flight allowance",
                      out.frames_while_paused <=
                          media_.pauses() * w.paused_frames_per_pause);
    }
    return out;
  }

  /// Every RTSP request of this run that got an answer, re-rendered from
  /// the client configs and outcomes, and the bytes of those answers. A
  /// client answered past SETUP is replayed only when its script completed,
  /// since the outcome does not say how far an unfinished one got; the
  /// count is checked against the server's. Answers are rendered as 200s.
  /// The response receiver of client i is the port after the RTCP sink's,
  /// two ports per client (receiver, then sender), in construction order.
  void replay_texts(const Workload& w, std::vector<std::string>& requests,
                    std::uint64_t& response_bytes) const {
    response_bytes = 0;
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      const auto& cfg = w.clients[i];
      const auto& o = clients_[i]->outcome();
      if (!o.responded_setup) continue;
      const std::uint64_t sid = clients_[i]->session_id();
      std::uint64_t cseq = 0;
      const auto exchange = [&](session::Method m, int status) {
        session::RtspRequest req;
        req.method = m;
        req.uri = cfg.uri;
        req.cseq = ++cseq;
        req.session_id = m == session::Method::kSetup ? 0 : sid;
        req.reply_port = rtcp_sink_.port() + 1 + 2 * static_cast<int>(i);
        req.rtp_port = media_.port();
        req.rtcp_port = rtcp_sink_.port();
        req.tolerance = cfg.tolerance;
        req.period = cfg.period;
        req.frame_bytes = cfg.frame_bytes;
        req.frames = cfg.frames;
        requests.push_back(session::format_request(req));
        const bool setup_ok = m == session::Method::kSetup && status == 200;
        response_bytes +=
            session::format_response({.status = status,
                                      .cseq = req.cseq,
                                      .session_id = status == 200 ? sid : 0,
                                      .stream = static_cast<dwcs::StreamId>(
                                          clients_[i]->stream()),
                                      .has_stream = setup_ok})
                .size();
      };
      exchange(session::Method::kSetup, o.setup_status);
      if (!o.admitted || !o.completed) continue;
      exchange(session::Method::kPlay, 200);
      if (cfg.behavior == Behavior::kVanish) continue;
      if (cfg.behavior == Behavior::kPauseResume) {
        exchange(session::Method::kPause, 200);
        exchange(session::Method::kPlay, 200);
      }
      exchange(session::Method::kTeardown, 200);
    }
  }

  [[nodiscard]] std::uint64_t media_bytes() const {
    return media_.total_bytes();
  }
  [[nodiscard]] std::uint64_t ether_bytes() const {
    return ether_.bytes_switched();
  }

 private:
  [[nodiscard]] Counters counters() {
    const auto& st = server_.door().stats();
    const auto& rx = server_.door().control_rx();
    auto& service = server_.service();
    return Counters{
        .apps = media_.total_frames() + media_.pauses() + media_.resumes() +
                rtcp_reports_,
        .session = st.requests + st.bad_requests + st.setups_ok +
                   st.rejected_453 + st.plays + st.resumes + st.pauses +
                   st.teardowns + st.stale_454 + st.bad_state_455 +
                   st.reaped_idle + st.conn_closed + st.eos,
        .cpu_cycles =
            static_cast<std::uint64_t>(server_.kernel().cpu().cycles()),
        .dvcm = service.dispatched() + service.rejected_ring_full(),
        .decisions = service.scheduler().decisions(),
        .net = rx.delivered() + rx.discarded_out_of_order() +
               rx.peers_closed(),
        .hw = ether_.bytes_switched() + ether_.frames_lost()};
  }

  // Declaration order is construction order: the engine first, then the
  // sentinel, so its sequence number is the same in every run.
  sim::Engine engine_;
  bool horizon_reached_ = false;
  sim::EventHandle sentinel_;
  hw::EthernetSwitch ether_;
  session::SessionServer server_;
  apps::MpegClient media_;
  std::uint64_t rtcp_reports_ = 0;
  net::UdpEndpoint rtcp_sink_;
  std::vector<std::unique_ptr<session::RtspChurnClient>> clients_;
};

struct Batch {
  double setup_s = 0;
  double wall_s = 0;
  double rss_mb = 0;  // the process's peak RSS once this batch has run
  Outcome outcome;
};

/// One whole fleet: build (timed as setup), start + run (timed as wall),
/// collect. Tearing the rig down is timed by neither.
Batch run_batch(const Workload& w, StepTrace* trace,
                std::vector<std::string>* requests = nullptr,
                std::uint64_t* response_bytes = nullptr,
                double* wire_efficiency = nullptr) {
  Batch b;
  const auto t0 = Clock::now();
  auto rig = std::make_unique<Rig>(w);
  b.setup_s = seconds_since(t0);
  const auto pool0 = sim::coro_pool_stats();
  const auto t1 = Clock::now();
  rig->start();
  if (trace != nullptr) {
    rig->run_traced(*trace);
  } else {
    rig->run(w);
  }
  b.wall_s = seconds_since(t1);
  b.rss_mb = peak_rss_mb();
  if (trace != nullptr) trace->wall_s = b.wall_s;
  b.outcome = rig->collect(w, pool0);
  if (requests != nullptr) {
    rig->replay_texts(w, *requests, *response_bytes);
    std::uint64_t request_bytes = 0;
    for (const auto& s : *requests) request_bytes += s.size();
    const double useful = static_cast<double>(
        rig->media_bytes() + request_bytes + *response_bytes);
    *wire_efficiency =
        rig->ether_bytes() ? useful / static_cast<double>(rig->ether_bytes())
                           : 0;
  }
  return b;
}

/// The sim-clock end-to-end metrics, identical for every batch of a seed.
void report_sim(Report& r, const Outcome& o, const Workload& w) {
  std::string label;
  const double tail = tail_sorted(o.setup_ms, label);
  r.sim("setup_ms_p50", percentile_sorted(o.setup_ms, 50), "ms");
  r.sim("setup_ms_tail", tail, "ms",
        label + " of " + std::to_string(o.setup_ms.size()) + " samples");
  r.sim("admit_rate",
        static_cast<double>(o.setups_ok) /
            static_cast<double>(std::max<std::size_t>(w.clients.size(), 1)),
        "share");
  r.sim("sim_ops_per_s", o.ops_per_s, "1/s",
        w.ops_are_setups ? "SETUP answers, first arrival to last answer"
                         : "media frames delivered over the horizon");
  r.sim("frames_delivered", static_cast<double>(o.frames_delivered), "count");
  r.sim("frame_ms_mean", o.frame_ms_mean, "ms");
  r.sim("frame_ms_max", o.frame_ms_max, "ms");
  r.sim("violation_rate", o.violation_rate, "share");
}

void merge_checks(Report& r, const std::vector<Batch>& batches) {
  for (std::size_t i = 0; i < batches.front().outcome.checks.size(); ++i) {
    bool ok = true;
    for (const auto& b : batches) ok = ok && b.outcome.checks[i].second;
    r.check(batches.front().outcome.checks[i].first, ok);
  }
}

void run_session_workload(const Options& o, const Workload& w, Report& r) {
  // A storm batch takes several seconds, so this floor keeps the storm's
  // medians on enough samples whatever --seconds is.
  constexpr std::size_t kMinBatches = 3;
  std::vector<Batch> batches;
  SetupSlices setups;
  StepTrace trace;
  std::vector<std::string> requests;
  std::uint64_t response_bytes = 0;
  double wire_efficiency = 0;

  // The first batch warms the allocator and the process's page tables. It
  // is checked like every other batch, but its times are not reported.
  batches.push_back(run_batch(w, nullptr));
  if (!o.trace) {
    const auto build_once = [&] {
      const auto t0 = Clock::now();
      auto rig = std::make_unique<Rig>(w);
      return seconds_since(t0);
    };
    const auto start = Clock::now();
    do {
      batches.push_back(run_batch(w, nullptr));
      setups.slice(batches.back().setup_s, build_once);
    } while (seconds_since(start) < o.seconds ||
             batches.size() - 1 < kMinBatches);
  } else {
    batches.push_back(run_batch(w, nullptr));
    batches.push_back(run_batch(w, &trace, &requests, &response_bytes,
                                &wire_efficiency));
  }

  std::vector<double> walls;
  bool agree = true;
  for (const auto& b : batches) {
    if (&b != &batches.front()) walls.push_back(b.wall_s);
    agree = agree &&
            b.outcome.fingerprint == batches.front().outcome.fingerprint;
    r.attempted += b.outcome.attempted;
    r.failed += b.outcome.failed_lifecycles;
  }
  const Outcome& first = batches.front().outcome;
  r.fingerprint = first.fingerprint;

  if (!o.trace) {
    r.host("wall_s", median(walls), "s", sample_note(walls, "batches"));
    r.host("setup_s", setups.median_s(), "s", setups.note("builds"));
  } else {
    r.host("wall_s", batches[1].wall_s, "s", "untraced batch");
    r.host("setup_s", batches[1].setup_s, "s", "untraced batch");
  }
  r.host("peak_rss_mb", batches.front().rss_mb, "MB", "after the first batch");
  report_sim(r, first, w);
  merge_checks(r, batches);
  r.check(o.trace ? "traced fingerprint equals untraced"
                  : "same-seed batches agree",
          agree);
  if (!o.trace) return;

  // Per-layer figures from the traced batch (counts are sim-clock and equal
  // the untraced batch's; times are host).
  const Outcome& t = batches.back().outcome;
  const auto& st = t.door;
  r.sim("sim.events", static_cast<double>(t.events), "count");
  r.host("sim.host_ns_per_event",
         batches[1].wall_s * 1e9 / static_cast<double>(t.events), "ns",
         "untraced wall / events");
  r.sim("sim.pending_peak", static_cast<double>(trace.pending_peak), "count");
  r.sim("sim.coro_frames", static_cast<double>(t.coro_frames), "count");
  r.host("sim.coro_fresh_blocks", static_cast<double>(first.coro_fresh_blocks),
         "count", "first batch in the process");
  r.sim("net.ctl_delivered", static_cast<double>(t.ctl_delivered), "count");
  r.sim("net.ctl_out_of_order", static_cast<double>(t.ctl_out_of_order),
        "count");
  r.sim("net.ctl_peers", static_cast<double>(t.ctl_peers), "count");
  r.sim("net.wire_efficiency", wire_efficiency, "share",
        "RTSP + RTP bytes / bytes switched");
  r.sim("hw.ether_bytes", static_cast<double>(t.ether_bytes), "bytes");
  r.sim("hw.ether_frames_lost", static_cast<double>(t.ether_frames_lost),
        "count");
  r.sim("rtos.ni_cpu_busy_share", t.ni_cpu_busy_share, "share");
  r.sim("session.requests", static_cast<double>(st.requests), "count");
  r.sim("session.bad_requests", static_cast<double>(st.bad_requests), "count");
  r.sim("session.reaped", static_cast<double>(st.reaped_idle), "count");
  r.sim("session.live_peak", static_cast<double>(trace.live_peak), "count");
  {
    const auto t0 = Clock::now();
    std::uint64_t parsed = 0;
    for (const auto& text : requests) {
      parsed += session::parse_request(text).has_value() ? 1 : 0;
    }
    const double ns = static_cast<double>(ns_between(t0, Clock::now()));
    r.host("session.parse_ns",
           requests.empty() ? 0 : ns / static_cast<double>(requests.size()),
           "ns", std::to_string(requests.size()) + " requests replayed");
    r.check("replayed requests all parse", parsed == requests.size());
    r.check("replayed requests match the server's count",
            requests.size() == st.requests);
  }
  r.sim("path.frames_pumped", static_cast<double>(st.frames_pumped), "count");
  r.sim("dvcm.dispatched", static_cast<double>(t.dispatched), "count");
  r.sim("dvcm.ring_full_rejects", static_cast<double>(t.ring_full_rejects),
        "count");
  r.sim("dwcs.decisions", static_cast<double>(t.decisions), "count");
  r.sim("dwcs.violating_windows", static_cast<double>(t.violating_windows),
        "count");
  r.sim("apps.frames_while_paused", static_cast<double>(t.frames_while_paused),
        "count");
  report_layer_times(r, trace.self_ns, trace.self_ns[kSim], true);
  r.host("host.tracing_overhead", trace.wall_s / batches[1].wall_s,
         "ratio", "traced / untraced wall_s");
}

}  // namespace

void run_setup_storm(const Options& o, Report& r) {
  run_session_workload(o, make_setup_storm(o), r);
}

void run_steady_play(const Options& o, Report& r) {
  run_session_workload(o, make_steady_play(o), r);
}

}  // namespace nibench
