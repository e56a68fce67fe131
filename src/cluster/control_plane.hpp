// The cluster control plane: board liveness and stream placement across N
// NIs, with NI-to-NI failover.
//
// The paper's scalability argument is "add NIs, not CPUs" (§6's careful
// construction). On one board, a board death leaves the host scheduler as
// the only refuge — exactly the resource the architecture exists to spare.
// With N boards, a death is absorbed by the boards that remain:
//
//   board b trips ──▶ purge b's backlog (loss made visible)
//                 ──▶ evacuate b's streams in violation-pressure order:
//                       most-hurt stream first picks the least-loaded
//                       sibling with admission headroom (capacity-aware:
//                       a failover must not become the overload that kills
//                       the next board), checkpoint shipped NI-to-NI over
//                       the reliable interconnect (cluster/wire.hpp);
//                 ──▶ only the remainder — streams no sibling can hold —
//                       spills to the lazily-built host scheduler.
//   board b reboots (new incarnation) ──▶ migrated streams drain back home
//                       under the same choreography, each served at its
//                       refuge until the home adoption lands (no second
//                       outage during fail-back).
//
// At boards = 1 the same choreography is single-board failover: with no
// sibling, the trip spills every stream to the host, the reboot drains each
// one home over the reliable link, and while the board is down open_stream
// refuses fresh streams (bench/chaos_sweep.cpp drives it so).
//
// One HostWatchdog per board (phase-staggered), one shadow registry for the
// cluster (cluster/registry.hpp), one violation monitor keyed by
// (board incarnation, local id) so a migrated stream's post-crash QoS never
// aliases its pre-crash counters. Every decision is deterministic: victims
// sort by (violation pressure desc, global id asc), placement ties go to
// the lowest board index, and shipments ride an in-order reliable channel —
// two same-seed chaos runs produce identical charge fingerprints
// (tests/cluster/replay_test.cpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "apps/media_server.hpp"
#include "cluster/placement.hpp"
#include "cluster/registry.hpp"
#include "cluster/wire.hpp"
#include "dvcm/heartbeat.hpp"
#include "dvcm/remote.hpp"
#include "dwcs/admission.hpp"
#include "dwcs/monitor.hpp"

namespace nistream::cluster {

class ClusterControlPlane {
 public:
  struct Config {
    int boards = 3;
    dvcm::StreamService::Config service{};
    /// Per-frame NI CPU cost used for admission (benches shrink capacity by
    /// raising this). The Table 2 operating point is ~95 us, but with
    /// hundreds of streams the heaps deepen and late-drop processing adds
    /// decisions, so admission budgets conservatively — §6's "careful
    /// construction": admitting to the microbenchmark number saturates the
    /// NI CPU and collapses delivery (see bench/ablate_cluster).
    sim::Time per_frame_cpu = sim::Time::us(130);
  };

  /// Admissible fraction of each NI resource (see dwcs::AdmissionController).
  static constexpr double kAdmissionHeadroom = 0.90;
  /// Phase offset between successive boards' watchdog probe loops.
  static constexpr sim::Time kWatchdogStagger = sim::Time::ms(7);

  struct Metrics {
    std::uint64_t failovers = 0;            // board trips handled
    std::uint64_t failbacks = 0;            // board recoveries handled
    std::uint64_t migrations_started = 0;   // checkpoints shipped to siblings
    std::uint64_t migrations_completed = 0; // sibling adoptions landed
    std::uint64_t drainbacks_started = 0;   // fail-back shipments
    std::uint64_t drainbacks_completed = 0;
    std::uint64_t host_takeover_streams = 0; // spilled: no sibling headroom
    std::uint64_t stale_adoptions = 0;       // superseded-epoch arrivals
    std::uint64_t frames_purged = 0;
    std::uint64_t frames_rejected = 0;  // enqueue refusals (incl. in transit)
    std::uint64_t rejected_admission = 0;  // open_stream: no NI headroom
    /// Last trip: board-down to watchdog trip (detection latency).
    double failover_latency_ms = 0;
    /// Last trip: board-down to the final evacuated stream re-admitted
    /// somewhere (sibling adoption landed or host spill done).
    double readmission_complete_ms = 0;
    /// Last reboot: board-down to the final drain-back landed.
    double recovery_time_ms = 0;
  };

  ClusterControlPlane(hostos::HostMachine& host, hw::EthernetSwitch& ether,
                      Config config, const hw::Calibration& cal = {})
      : host_{host},
        engine_{host.engine()},
        ether_{ether},
        cal_{cal},
        config_{config} {
    for (int b = 0; b < config.boards; ++b) {
      auto m = std::make_unique<Member>();
      m->bus = std::make_unique<hw::PciBus>(engine_, cal.pci);
      m->ni = std::make_unique<apps::NiSchedulerServer>(
          engine_, *m->bus, ether, config.service, cal);
      m->admission = std::make_unique<dwcs::AdmissionController>(
          cal.ethernet.bits_per_sec / 8.0, config.per_frame_cpu,
          kAdmissionHeadroom);

      m->ni->runtime().load_extension(
          std::make_unique<dvcm::HeartbeatExtension>());
      auto ext = std::make_unique<ClusterExtension>(m->ni->service());
      ext->set_on_adopt(
          [this, b](const ShippedCheckpoint& sc) { on_adopted(b, sc); });
      m->ni->runtime().load_extension(std::move(ext));

      m->port = std::make_unique<dvcm::ReliableRemoteVcmPort>(
          m->ni->runtime(), ether, cal.ethernet.stack_traversal);
      m->ship = std::make_unique<dvcm::ReliableRemoteVcmClient>(
          engine_, ether, cal.ethernet.stack_traversal, m->port->port());

      m->watchdog = std::make_unique<dvcm::HostWatchdog>(
          engine_, m->ni->host_api(),
          kWatchdogStagger * static_cast<std::int64_t>(b));
      m->watchdog->set_on_trip(
          [this, b](sim::Time now) { fail_over(b, now); });
      m->watchdog->set_on_recovery([this, b](sim::Time now, std::uint64_t inc) {
        fail_back(b, now, inc);
      });
      m->watchdog->start();

      observe_member(b, m->ni->service());
      members_.push_back(std::move(m));
    }
  }

  ClusterControlPlane(const ClusterControlPlane&) = delete;
  ClusterControlPlane& operator=(const ClusterControlPlane&) = delete;

  /// Gate board `b` on a health state machine (crash/hang/reboot); also
  /// feeds the latency metrics (down-at timestamps, incarnations).
  void attach_health(int b, fault::BoardHealth& h) {
    members_[static_cast<std::size_t>(b)]->ni->attach_health(h);
    members_[static_cast<std::size_t>(b)]->health = &h;
  }

  /// Admit a stream: capacity-aware least-loaded placement across the alive
  /// boards. Returns its cluster-wide id, or nullopt when no NI has
  /// headroom (fresh admission never spills to the host — the last-resort
  /// path is reserved for keeping *already-admitted* streams alive).
  std::optional<GlobalStreamId> open_stream(const dwcs::StreamParams& params,
                                            std::uint32_t mean_frame_bytes,
                                            int client_port) {
    const auto req = request_of(params, mean_frame_bytes);
    const int b = pick_least_loaded(
        static_cast<int>(members_.size()),
        [this](int i) { return load_of(i); },
        [this, &req](int i) {
          return serving(i) && member(i).admission->would_admit(req);
        });
    if (b < 0) {
      ++metrics_.rejected_admission;
      return std::nullopt;
    }
    Member& m = member(b);
    m.admission->admit(req);
    const auto local = m.ni->service().create_stream(params, client_port);

    StreamRecord& rec = registry_.add(params, client_port, mean_frame_bytes);
    rec.home_board = b;
    rec.home_local = local;
    rec.where = Residence{.board = b,
                          .incarnation = incarnation(b),
                          .local = local,
                          .monitor_scope = scope(b, incarnation(b))};
    registry_.bind(b, local, rec.id);
    monitor_.add_stream({rec.where.monitor_scope, local}, params.tolerance);
    return rec.id;
  }

  /// Producer side, routed to the stream's current residence. A refusal —
  /// board down, in flight between boards, ring full — is a lost frame from
  /// the viewer's point of view, charged against the stream's window at the
  /// placement that was (or last was) responsible for it.
  bool enqueue(GlobalStreamId id, std::uint32_t bytes, mpeg::FrameType type) {
    StreamRecord& rec = registry_.record(id);
    if (rec.in_flight || !rec.where.placed()) {
      // In flight the record still names its last residence; the lost frame
      // counts against the placement whose death caused the migration.
      if (rec.where.placed()) {
        monitor_.record({rec.where.monitor_scope, rec.where.local},
                        dwcs::WindowViolationMonitor::Outcome::kDropped);
      }
      ++metrics_.frames_rejected;
      return false;
    }
    const bool ok =
        rec.where.on_host()
            ? host_server_->service().enqueue(rec.where.local, bytes, type)
            : member(rec.where.board)
                  .ni->service()
                  .enqueue(rec.where.local, bytes, type);
    if (!ok) {
      monitor_.record({rec.where.monitor_scope, rec.where.local},
                      dwcs::WindowViolationMonitor::Outcome::kDropped);
      ++metrics_.frames_rejected;
    }
    return ok;
  }

  // ---- observability ----

  [[nodiscard]] apps::NiSchedulerServer& ni(int b) { return *member(b).ni; }
  [[nodiscard]] const dwcs::AdmissionController& admission(int b) const {
    return *members_[static_cast<std::size_t>(b)]->admission;
  }
  [[nodiscard]] dvcm::HostWatchdog& watchdog(int b) {
    return *member(b).watchdog;
  }
  [[nodiscard]] bool board_serving(int b) const { return serving(b); }
  [[nodiscard]] apps::HostSchedulerServer* host_server() {
    return host_server_.get();
  }
  [[nodiscard]] ShadowRegistry& registry() { return registry_; }
  [[nodiscard]] dwcs::WindowViolationMonitor& monitor() { return monitor_; }
  [[nodiscard]] const Metrics& metrics() const { return metrics_; }
  [[nodiscard]] std::uint64_t streams_opened() const {
    return registry_.size();
  }

  /// Lifetime QoS of one logical stream, aggregated over every placement it
  /// has lived at (each placement's counters stay frozen once superseded).
  [[nodiscard]] std::uint64_t violating_windows(GlobalStreamId id) const {
    std::uint64_t sum = 0;
    for_each_placement(id, [&](dwcs::WindowViolationMonitor::StreamKey k) {
      sum += monitor_.violating_windows(k);
    });
    return sum;
  }
  [[nodiscard]] std::uint64_t packets(GlobalStreamId id) const {
    std::uint64_t sum = 0;
    for_each_placement(id, [&](dwcs::WindowViolationMonitor::StreamKey k) {
      sum += monitor_.packets(k);
    });
    return sum;
  }
  [[nodiscard]] double violation_rate(GlobalStreamId id) const {
    std::uint64_t viol = 0;
    std::uint64_t windows = 0;
    for_each_placement(id, [&](dwcs::WindowViolationMonitor::StreamKey k) {
      viol += monitor_.violating_windows(k);
      windows += monitor_.window_positions(k);
    });
    return windows ? static_cast<double>(viol) / static_cast<double>(windows)
                   : 0.0;
  }

  /// Deterministic mass re-admission order: violation pressure (lifetime
  /// violation rate) descending — the streams the outage hurt most get the
  /// sibling slots — with global id ascending as the tie-break. Exposed for
  /// the ordering tests.
  [[nodiscard]] std::vector<GlobalStreamId> readmission_order(
      std::vector<GlobalStreamId> ids) const {
    std::sort(ids.begin(), ids.end(),
              [this](GlobalStreamId a, GlobalStreamId b) {
                const double pa = violation_rate(a);
                const double pb = violation_rate(b);
                if (pa != pb) return pa > pb;
                return a < b;
              });
    return ids;
  }

 private:
  struct Member {
    std::unique_ptr<hw::PciBus> bus;
    std::unique_ptr<apps::NiSchedulerServer> ni;
    std::unique_ptr<dwcs::AdmissionController> admission;
    std::unique_ptr<dvcm::ReliableRemoteVcmPort> port;
    std::unique_ptr<dvcm::ReliableRemoteVcmClient> ship;
    std::unique_ptr<dvcm::HostWatchdog> watchdog;
    fault::BoardHealth* health = nullptr;
    /// Tripped and not yet recovered: excluded from placement.
    bool offline = false;
  };

  [[nodiscard]] Member& member(int b) {
    return *members_[static_cast<std::size_t>(b)];
  }
  [[nodiscard]] bool serving(int b) const {
    return !members_[static_cast<std::size_t>(b)]->offline;
  }
  [[nodiscard]] double load_of(int b) const {
    const auto& a = *members_[static_cast<std::size_t>(b)]->admission;
    return std::max(a.link_utilization(), a.cpu_utilization());
  }
  [[nodiscard]] std::uint64_t incarnation(int b) const {
    const auto* h = members_[static_cast<std::size_t>(b)]->health;
    return h != nullptr ? h->incarnation() : 0;
  }

  /// Monitor scope of a placement: board index folded with the board
  /// incarnation, so a rebooted board's adoptions start fresh QoS windows
  /// while a hang-recovered board resumes its old ones. Scope 0 is reserved
  /// for legacy single-scheduler monitor users; the host spill path gets a
  /// scope of its own (the host never reboots in this model).
  [[nodiscard]] static std::uint32_t scope(int board,
                                           std::uint64_t incarnation) {
    return (static_cast<std::uint32_t>(board + 1) << 20) |
           static_cast<std::uint32_t>(incarnation & 0xFFFFF);
  }
  static constexpr std::uint32_t kHostScope = 0xFFFF'FFFFu;

  [[nodiscard]] static dwcs::AdmissionController::Request request_of(
      const dwcs::StreamParams& params, std::uint32_t mean_frame_bytes) {
    return {.tolerance = params.tolerance,
            .period = params.period,
            .mean_frame_bytes = mean_frame_bytes};
  }
  [[nodiscard]] static dwcs::AdmissionController::Request request_of(
      const StreamRecord& rec) {
    return request_of(rec.params, rec.mean_frame_bytes);
  }

  /// QoS observers: translate a service's (board, local id) outcome to the
  /// placement that owns it. A superseded placement can still dispatch (a
  /// refuge board flushing frames accepted before the drain-back landed);
  /// those outcomes belong to the old placement's counters, found in the
  /// record's history.
  void observe_member(int b, dvcm::StreamService& svc) {
    svc.set_dispatch_observer(
        [this, b](dwcs::StreamId local, const dwcs::Dispatch& d) {
          record_outcome(b, local,
                         d.late
                             ? dwcs::WindowViolationMonitor::Outcome::kLate
                             : dwcs::WindowViolationMonitor::Outcome::kOnTime);
        });
    svc.set_drop_observer(
        [this, b](dwcs::StreamId local, const dwcs::FrameDescriptor&) {
          record_outcome(b, local,
                         dwcs::WindowViolationMonitor::Outcome::kDropped);
        });
  }

  void record_outcome(int board, dwcs::StreamId local,
                      dwcs::WindowViolationMonitor::Outcome o) {
    const auto* g = registry_.lookup(board, local);
    if (g == nullptr) return;
    const StreamRecord& rec = registry_.record(*g);
    if (rec.where.placed() && rec.where.board == board &&
        rec.where.local == local) {
      monitor_.record({rec.where.monitor_scope, local}, o);
      return;
    }
    for (auto it = rec.history.rbegin(); it != rec.history.rend(); ++it) {
      if (it->board == board && it->local == local) {
        monitor_.record({it->monitor_scope, local}, o);
        return;
      }
    }
  }

  // ---- failover choreography ----

  void fail_over(int b, sim::Time now) {
    Member& m = member(b);
    if (m.offline) return;
    m.offline = true;
    ++metrics_.failovers;
    ++epoch_;
    if (m.health != nullptr &&
        m.health->last_down_at() > sim::Time::zero()) {
      trip_down_at_ = m.health->last_down_at();
      metrics_.failover_latency_ms = (now - trip_down_at_).to_ms();
    } else {
      trip_down_at_ = now;
      metrics_.failover_latency_ms = 0;
    }

    // Frames queued on the dead board are gone; the purge routes each loss
    // through the drop observer into the dead placement's window counters.
    metrics_.frames_purged += m.ni->service().purge_backlog();

    // Victims: everything resident on b, everything in flight *to* b, and
    // every drain-back targeting b (the home died again mid-drain).
    std::vector<GlobalStreamId> victims;
    for (auto& rec : registry_.records()) {
      if (rec.in_flight && rec.flight_dst == b) {
        // Reservation made at ship time; the board it was made on is dead.
        member(b).admission->release(request_of(rec));
        rec.in_flight = false;
        rec.flight_dst = Residence::kNowhere;
        victims.push_back(rec.id);
      } else if (rec.draining && rec.flight_dst == b) {
        // Cancel the drain; the stream keeps living at its refuge.
        member(b).admission->release(request_of(rec));
        rec.draining = false;
        rec.flight_dst = Residence::kNowhere;
        ++epoch_;  // invalidate the in-flight drain shipment
      } else if (rec.where.placed() && rec.where.board == b) {
        member(b).admission->release(request_of(rec));
        if (rec.draining) {
          // Was draining *from* b? (cannot happen: drains target the home
          // board, and b just died — but clear defensively.)
          rec.draining = false;
          rec.flight_dst = Residence::kNowhere;
        }
        victims.push_back(rec.id);
      }
    }

    pending_readmissions_ = 0;
    for (const GlobalStreamId id : readmission_order(std::move(victims))) {
      evacuate(registry_.record(id), b);
    }
    if (pending_readmissions_ == 0) {
      metrics_.readmission_complete_ms = (now - trip_down_at_).to_ms();
    }
  }

  /// Re-admit one victim of board `dead`: least-loaded sibling with
  /// headroom, else the host.
  void evacuate(StreamRecord& rec, int dead) {
    const auto req = request_of(rec);
    const int target = pick_least_loaded(
        static_cast<int>(members_.size()),
        [this](int i) { return load_of(i); },
        [this, &req, dead](int i) {
          return i != dead && serving(i) &&
                 member(i).admission->would_admit(req);
        });
    if (target >= 0) {
      member(target).admission->admit(req);
      ship_checkpoint(rec, target);
      ++metrics_.migrations_started;
      ++pending_readmissions_;
      return;
    }
    // No sibling has headroom: the host is the last resort. The registry is
    // host-resident, so the spill is a local adoption, not a shipment. A
    // stream that spilled before re-adopts its host id, as a drain home
    // re-adopts the board's: the host never reboots, so that placement
    // resumes (its windows carry on) and leaves the history again.
    ensure_host_server();
    dvcm::StreamService& host = host_server_->service();
    const auto earlier = std::find_if(
        rec.history.begin(), rec.history.end(),
        [](const Residence& r) { return r.on_host(); });
    dwcs::StreamId local;
    if (earlier != rec.history.end()) {
      local = earlier->local;
      host.readopt(local, checkpoint_of(rec));
      rec.history.erase(earlier);
    } else {
      local = host.adopt(checkpoint_of(rec));
    }
    supersede(rec, Residence{.board = Residence::kHost,
                             .incarnation = 0,
                             .local = local,
                             .monitor_scope = kHostScope});
    registry_.bind(Residence::kHost, local, rec.id);
    monitor_.add_stream({kHostScope, local}, rec.params.tolerance);
    ++metrics_.host_takeover_streams;
  }

  void fail_back(int b, sim::Time now, std::uint64_t /*incarnation*/) {
    Member& m = member(b);
    if (!m.offline) return;
    m.offline = false;
    ++metrics_.failbacks;
    ++epoch_;

    // Drain migrated streams home, most-pressured first — the same
    // choreography as the evacuation, in reverse. Each stays live at its
    // refuge until the home adoption lands, so fail-back causes no second
    // outage. A stream the home can no longer admit stays where it is.
    std::vector<GlobalStreamId> migrated;
    for (const auto& rec : registry_.records()) {
      if (rec.home_board == b && rec.where.placed() &&
          rec.where.board != b && !rec.in_flight && !rec.draining) {
        migrated.push_back(rec.id);
      }
    }
    pending_drains_ = 0;
    for (const GlobalStreamId id : readmission_order(std::move(migrated))) {
      StreamRecord& rec = registry_.record(id);
      const auto req = request_of(rec);
      if (!m.admission->would_admit(req)) continue;
      m.admission->admit(req);
      rec.draining = true;
      rec.flight_dst = b;
      rec.flight_epoch = epoch_;
      ship(rec, b, /*reuse_local=*/rec.home_local);
      ++metrics_.drainbacks_started;
      ++pending_drains_;
    }
    if (pending_drains_ == 0 && m.health != nullptr &&
        m.health->last_down_at() > sim::Time::zero()) {
      metrics_.recovery_time_ms = (now - m.health->last_down_at()).to_ms();
    }
  }

  /// Shipment of an evacuation (fresh local id at the target).
  void ship_checkpoint(StreamRecord& rec, int target) {
    rec.in_flight = true;
    rec.flight_dst = target;
    rec.flight_epoch = epoch_;
    ship(rec, target, /*reuse_local=*/
         target == rec.home_board ? rec.home_local : dwcs::kInvalidStream);
  }

  void ship(StreamRecord& rec, int target, dwcs::StreamId reuse_local) {
    auto sc = std::make_shared<ShippedCheckpoint>();
    sc->global = rec.id;
    sc->epoch = rec.flight_epoch;
    sc->source_incarnation = rec.where.incarnation;
    sc->body = checkpoint_of(rec);
    sc->reuse_local = reuse_local;
    member(target).ship->invoke(kAdoptStream, /*w0=*/rec.id, std::move(sc),
                                ShippedCheckpoint::kWireBytes);
  }

  /// Checkpoint body for a record, with frames_sent read live from the
  /// current residence (the registry's copy is only as fresh as the last
  /// migration).
  [[nodiscard]] dvcm::StreamCheckpoint checkpoint_of(const StreamRecord& rec) {
    std::uint64_t sent = rec.frames_sent;
    if (rec.where.placed()) {
      sent = rec.where.on_host()
                 ? host_server_->service().frames_sent(rec.where.local)
                 : member(rec.where.board)
                       .ni->service()
                       .frames_sent(rec.where.local);
    }
    return {.params = rec.params,
            .client_port = rec.client_port,
            .frames_sent = sent};
  }

  /// An adoption landed on board `b` (fired by its ClusterExtension, on the
  /// board's dispatch path).
  void on_adopted(int b, const ShippedCheckpoint& sc) {
    StreamRecord& rec = registry_.record(sc.global);
    if (sc.epoch != rec.flight_epoch || rec.flight_dst != b ||
        !(rec.in_flight || rec.draining)) {
      ++metrics_.stale_adoptions;
      return;
    }
    const bool was_drain = rec.draining;
    dvcm::StreamService& svc = member(b).ni->service();
    dwcs::StreamId local;
    if (sc.reuse_local != dwcs::kInvalidStream &&
        static_cast<std::size_t>(sc.reuse_local) <
            svc.scheduler().stream_count()) {
      svc.readopt(sc.reuse_local, sc.body);
      local = sc.reuse_local;
    } else {
      local = svc.adopt(sc.body);
    }

    if (was_drain && rec.where.placed()) {
      // The refuge hands the stream back: release its reservation.
      if (rec.where.on_host()) {
        // Host spill holds no reservation.
      } else {
        member(rec.where.board).admission->release(request_of(rec));
      }
    }
    rec.frames_sent = sc.body.frames_sent;
    const std::uint64_t inc = incarnation(b);
    supersede(rec, Residence{.board = b,
                             .incarnation = inc,
                             .local = local,
                             .monitor_scope = scope(b, inc)});
    registry_.bind(b, local, rec.id);
    monitor_.add_stream({rec.where.monitor_scope, local},
                        rec.params.tolerance);
    ++rec.migrations;

    if (was_drain) {
      ++metrics_.drainbacks_completed;
      if (--pending_drains_ == 0 && member(b).health != nullptr &&
          member(b).health->last_down_at() > sim::Time::zero()) {
        metrics_.recovery_time_ms =
            (engine_.now() - member(b).health->last_down_at()).to_ms();
      }
    } else {
      ++metrics_.migrations_completed;
      if (--pending_readmissions_ == 0) {
        metrics_.readmission_complete_ms =
            (engine_.now() - trip_down_at_).to_ms();
      }
    }
  }

  /// Move the record's current residence into history and install the new
  /// one, clearing flight state.
  void supersede(StreamRecord& rec, Residence next) {
    if (rec.where.placed()) rec.history.push_back(rec.where);
    rec.where = next;
    rec.in_flight = false;
    rec.draining = false;
    rec.flight_dst = Residence::kNowhere;
  }

  void ensure_host_server() {
    if (host_server_) return;
    // Lazily built: while every board lives, the host runs no scheduler at
    // all — that is the paper's whole point.
    host_server_ = std::make_unique<apps::HostSchedulerServer>(
        host_, ether_, config_.service, cal_);
    observe_member(Residence::kHost, host_server_->service());
  }

  template <typename Fn>
  void for_each_placement(GlobalStreamId id, Fn&& fn) const {
    const StreamRecord& rec = registry_.record(id);
    for (const auto& r : rec.history) fn({r.monitor_scope, r.local});
    if (rec.where.placed()) fn({rec.where.monitor_scope, rec.where.local});
  }

  hostos::HostMachine& host_;
  sim::Engine& engine_;
  hw::EthernetSwitch& ether_;
  hw::Calibration cal_;
  Config config_;
  std::vector<std::unique_ptr<Member>> members_;
  std::unique_ptr<apps::HostSchedulerServer> host_server_;
  ShadowRegistry registry_;
  dwcs::WindowViolationMonitor monitor_;
  Metrics metrics_;
  std::uint64_t epoch_ = 0;
  std::uint64_t pending_readmissions_ = 0;
  std::uint64_t pending_drains_ = 0;
  sim::Time trip_down_at_ = sim::Time::zero();
};

}  // namespace nistream::cluster
