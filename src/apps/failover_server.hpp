// Watchdog-driven NI -> host failover for the media server.
//
// The paper's answer to host interference is to move DWCS onto the NI; this
// server answers the follow-up question — what happens when the NI itself
// dies. It fronts a NiSchedulerServer with a host-side watchdog (DVCM
// heartbeat, dvcm/heartbeat.hpp) and keeps a HostSchedulerServer in reserve:
//
//   NI mode ──watchdog trips──▶ degraded (host) mode
//      ▲                              │
//      └──────heartbeat ack──────────-┘  (fail-back, re-admitting streams
//                                         the host admitted meanwhile)
//
// Stream identity is owned HERE, in a host-side shadow registry captured at
// admission time — the one piece of state that must survive the NI, because
// the NI's copy dies with the board. Failover re-admits every registered
// stream into the standby host scheduler via dvcm::StreamCheckpoint; frames
// queued on the dead board are purged (lost, observed as drops — exactly
// what a viewer would see). The WindowViolationMonitor watches the outcome
// stream of BOTH schedulers under the same stream ids, so the QoS cost of a
// crash/failover/failback cycle is a first-class measured quantity.
//
// Single global id space: both services admit streams in registry order
// starting at 0, so one id is valid in NI mode, degraded mode, and the
// monitor. The assert in StreamService::restore enforces the agreement.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "apps/media_server.hpp"
#include "dvcm/heartbeat.hpp"
#include "dwcs/monitor.hpp"

namespace nistream::apps {

class FailoverMediaServer {
 public:
  struct Config {
    dvcm::StreamService::Config service{};
  };

  // Split in two because GCC rejects `Config config = {}` as a default
  // argument for a nested aggregate inside its own enclosing class.
  FailoverMediaServer(hostos::HostMachine& host, hw::PciBus& bus,
                      hw::EthernetSwitch& ether)
      : FailoverMediaServer{host, bus, ether, Config{}} {}

  FailoverMediaServer(hostos::HostMachine& host, hw::PciBus& bus,
                      hw::EthernetSwitch& ether, Config config,
                      const hw::Calibration& cal = {})
      : host_{host},
        ether_{ether},
        cal_{cal},
        config_{config},
        ni_{host.engine(), bus, ether, config.service, cal},
        watchdog_{host.engine(), ni_.host_api()} {
    auto hb = std::make_unique<dvcm::HeartbeatExtension>();
    heartbeat_ = hb.get();
    ni_.runtime().load_extension(std::move(hb));
    observe(ni_.service());
    watchdog_.set_on_trip([this](sim::Time now) { fail_over(now); });
    watchdog_.set_on_recovery([this](sim::Time now, std::uint64_t inc) {
      fail_back(now, inc);
    });
    watchdog_.start();
  }

  FailoverMediaServer(const FailoverMediaServer&) = delete;
  FailoverMediaServer& operator=(const FailoverMediaServer&) = delete;

  /// Admit a stream. Registered in the host-side shadow registry first (the
  /// registry must outlive the NI), then created in whichever scheduler is
  /// active.
  dwcs::StreamId create_stream(const dwcs::StreamParams& params,
                               int client_port) {
    const auto expected = static_cast<dwcs::StreamId>(registry_.size());
    registry_.push_back({.id = expected,
                         .params = params,
                         .client_port = client_port,
                         .frames_sent = 0});
    monitor_.add_stream(params.tolerance);
    const auto id = active().create_stream(params, client_port);
    assert(id == expected);
    return id;
  }

  /// Producer side, routed to the active scheduler. A rejected frame (board
  /// down, ring full, memory exhausted) is lost from the viewer's point of
  /// view and recorded as a drop against the stream's window.
  bool enqueue(dwcs::StreamId id, std::uint32_t bytes, mpeg::FrameType type) {
    if (active().enqueue(id, bytes, type)) return true;
    ++rejected_;
    monitor_.record(id, dwcs::WindowViolationMonitor::Outcome::kDropped);
    return false;
  }

  /// The scheduler currently serving traffic.
  [[nodiscard]] dvcm::StreamService& active() {
    return degraded_ ? host_server_->service() : ni_.service();
  }

  [[nodiscard]] bool degraded() const { return degraded_; }
  [[nodiscard]] NiSchedulerServer& ni() { return ni_; }
  [[nodiscard]] dvcm::HostWatchdog& watchdog() { return watchdog_; }
  [[nodiscard]] dwcs::WindowViolationMonitor& monitor() { return monitor_; }
  [[nodiscard]] HostSchedulerServer* host_server() {
    return host_server_.get();
  }

  struct Metrics {
    std::uint64_t failovers = 0;
    std::uint64_t failbacks = 0;
    std::uint64_t frames_purged = 0;   // queued on the NI when it died
    std::uint64_t frames_rejected = 0; // refused at admission (incl. offline)
    /// Board-down to host-takeover: the watchdog's detection latency. Only
    /// meaningful when the NI has an attached BoardHealth (else 0).
    double failover_latency_ms = 0;
    /// Board-down to NI re-instated (fail-back complete).
    double recovery_time_ms = 0;
  };
  [[nodiscard]] Metrics metrics() const {
    Metrics m = metrics_;
    m.frames_rejected = rejected_;
    return m;
  }

 private:
  void observe(dvcm::StreamService& svc) {
    svc.set_dispatch_observer(
        [this](dwcs::StreamId id, const dwcs::Dispatch& d) {
          monitor_.record(id,
                          d.late
                              ? dwcs::WindowViolationMonitor::Outcome::kLate
                              : dwcs::WindowViolationMonitor::Outcome::kOnTime);
        });
    svc.set_drop_observer(
        [this](dwcs::StreamId id, const dwcs::FrameDescriptor&) {
          monitor_.record(id,
                          dwcs::WindowViolationMonitor::Outcome::kDropped);
        });
  }

  void fail_over(sim::Time now) {
    if (degraded_) return;
    degraded_ = true;
    ++metrics_.failovers;
    // Frames queued on the dead board are gone; purging makes the loss
    // visible to the monitor and releases the card-memory accounting.
    metrics_.frames_purged += ni_.service().purge_backlog();
    if (const auto* h = ni_.board().health()) {
      if (h->last_down_at() > sim::Time::zero()) {
        metrics_.failover_latency_ms = (now - h->last_down_at()).to_ms();
      }
    }
    if (!host_server_) {
      // Lazily built: in NI mode the host runs no scheduler at all (that is
      // the paper's whole point), so the standby costs nothing until needed.
      host_server_ = std::make_unique<HostSchedulerServer>(
          host_, ether_, config_.service, cal_);
      observe(host_server_->service());
    }
    host_server_->service().restore(checkpoint_from_registry(
        host_server_->service().scheduler().stream_count()));
  }

  void fail_back(sim::Time now, std::uint64_t /*incarnation*/) {
    if (!degraded_) return;
    degraded_ = false;
    ++metrics_.failbacks;
    // Streams admitted while degraded exist only on the host; re-admit them
    // into the NI so both sides agree on the id space again. (Streams the NI
    // already knows keep their board-side window state — a rebooted board
    // would also re-create them here if its service were rebuilt.)
    ni_.service().restore(
        checkpoint_from_registry(ni_.service().scheduler().stream_count()));
    if (const auto* h = ni_.board().health()) {
      if (h->last_down_at() > sim::Time::zero()) {
        metrics_.recovery_time_ms = (now - h->last_down_at()).to_ms();
      }
    }
  }

  /// Checkpoints for every registered stream with id >= `from` — the ones a
  /// freshly built (or stale) service is missing.
  [[nodiscard]] std::vector<dvcm::StreamCheckpoint> checkpoint_from_registry(
      std::size_t from) const {
    return {registry_.begin() + static_cast<std::ptrdiff_t>(from),
            registry_.end()};
  }

  hostos::HostMachine& host_;
  hw::EthernetSwitch& ether_;
  hw::Calibration cal_;
  Config config_;
  NiSchedulerServer ni_;
  dvcm::HeartbeatExtension* heartbeat_ = nullptr;
  dvcm::HostWatchdog watchdog_;
  std::unique_ptr<HostSchedulerServer> host_server_;
  std::vector<dvcm::StreamCheckpoint> registry_;
  dwcs::WindowViolationMonitor monitor_;
  Metrics metrics_;
  std::uint64_t rejected_ = 0;
  bool degraded_ = false;
};

}  // namespace nistream::apps
