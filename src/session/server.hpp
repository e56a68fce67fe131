// session::SessionServer — one NI running the full streaming stack:
// DWCS scheduler + dispatch task, RTP data plane out one UDP endpoint,
// QoS violation monitoring, SETUP-time admission, and the RTSP front door,
// all sharing the same simulated i960 and Ethernet port space. The churn
// bench and the session tests build one of these per cell; it is the
// session-plane analogue of apps::MediaServer.
#pragma once

#include <utility>

#include "dvcm/stream_service.hpp"
#include "dwcs/admission.hpp"
#include "dwcs/monitor.hpp"
#include "hw/calibration.hpp"
#include "hw/cpu.hpp"
#include "hw/ethernet.hpp"
#include "ingress/tenant.hpp"
#include "net/udp.hpp"
#include "rtos/wind.hpp"
#include "session/front_door.hpp"
#include "sim/engine.hpp"

namespace nistream::session {

class SessionServer {
 public:
  struct Config {
    hw::Calibration cal{};
    dvcm::StreamService::Config service = default_service();
    /// SETUP-time admission budget: the NI's link and the per-frame CPU a
    /// stream imposes END TO END — scheduling decision + dispatch (~95 us)
    /// plus the pump-side segmentation + RTP packetization (~25 us) — with
    /// DWCS's recovery headroom. Budgeting only the dispatch side admits
    /// ~110% of the CPU and the earliest-admitted streams go late.
    sim::Time per_frame_cpu = sim::Time::us(120);
    double admission_headroom = 0.90;
    RtspFrontDoor::Config door{};
    /// Named tenants with their admission shares. Empty keeps the server
    /// single-tenant (every URI resolves to the default tenant, scope 0).
    /// Non-empty turns on per-tenant budgets and (tenant, stream) monitor
    /// keying via the front door's TenantDirectory hook.
    std::vector<std::pair<std::string, ingress::TenantBudget>> tenants;
  };

  /// wind priority of the dispatch task, the most urgent on the NI:
  /// dispatches hold deadlines.
  static constexpr int kDispatchPriority = 50;

  /// Deadline-from-completion keeps a backlogged ring from accumulating
  /// phantom lateness across PAUSE gaps; churn sessions live and die fast,
  /// so a modest ring bounds per-session memory.
  [[nodiscard]] static dvcm::StreamService::Config default_service() {
    dvcm::StreamService::Config c;
    c.scheduler.deadline_from_completion = true;
    c.scheduler.ring_capacity = 8;
    // Churn arrivals are uncontrolled, so deadline grids collide: without
    // slack, a stream whose grid lands inside another stream's ~100 us
    // dispatch burst would lose its head every period. One millisecond
    // forgives the serialization; completion anchoring then spreads the
    // colliding grids apart on the next frame.
    c.scheduler.lateness_slack = sim::Time::ms(1);
    return c;
  }

  SessionServer(sim::Engine& engine, hw::EthernetSwitch& ether, Config config)
      : engine_{engine},
        config_{std::move(config)},
        cpu_{config_.cal.ni_cpu},
        kernel_{engine, cpu_, config_.cal.rtos},
        service_{engine, config_.service, cpu_, config_.cal.ni_int,
                 config_.cal.ni_softfp},
        rtp_out_{engine, ether, net::kNiStackCost,
                 [](const net::Packet&, sim::Time) {}},
        admission_{config_.cal.ethernet.bits_per_sec / 8.0,
                   config_.per_frame_cpu, config_.admission_headroom},
        dispatch_task_{kernel_.spawn("dwcs-dispatch", kDispatchPriority)},
        tenants_{config_.tenants},
        door_{engine,   ether,      kernel_,   service_,
              rtp_out_, admission_, &monitor_, door_config()} {
    service_.set_dispatch_observer(
        [this](dwcs::StreamId id, const dwcs::Dispatch& d) {
          const dwcs::WindowViolationMonitor::StreamKey key{
              tenants_.scope_of(id), id};
          if (monitor_.known(key)) {
            monitor_.record(key,
                            d.late
                                ? dwcs::WindowViolationMonitor::Outcome::kLate
                                : dwcs::WindowViolationMonitor::Outcome::
                                      kOnTime);
          }
        });
    service_.set_drop_observer(
        [this](dwcs::StreamId id, const dwcs::FrameDescriptor&) {
          const dwcs::WindowViolationMonitor::StreamKey key{
              tenants_.scope_of(id), id};
          if (monitor_.known(key)) {
            monitor_.record(key,
                            dwcs::WindowViolationMonitor::Outcome::kDropped);
          }
        });
    service_.run(dispatch_task_, rtp_out_).detach();
  }

  SessionServer(const SessionServer&) = delete;
  SessionServer& operator=(const SessionServer&) = delete;

  [[nodiscard]] RtspFrontDoor& door() { return door_; }
  [[nodiscard]] dvcm::StreamService& service() { return service_; }
  [[nodiscard]] dwcs::AdmissionController& admission() { return admission_; }
  [[nodiscard]] dwcs::WindowViolationMonitor& monitor() { return monitor_; }
  [[nodiscard]] ingress::TenantDirectory& tenants() { return tenants_; }
  [[nodiscard]] rtos::WindKernel& kernel() { return kernel_; }
  [[nodiscard]] int control_port() const { return door_.control_port(); }

 private:
  /// The front door sees the tenant directory only when tenants were
  /// configured, so a single-tenant server keeps the exact legacy SETUP
  /// path (and its stats) bit for bit.
  [[nodiscard]] RtspFrontDoor::Config door_config() {
    RtspFrontDoor::Config c = config_.door;
    if (!config_.tenants.empty()) c.tenants = &tenants_;
    return c;
  }

  sim::Engine& engine_;
  Config config_;
  hw::CpuModel cpu_;
  rtos::WindKernel kernel_;
  dvcm::StreamService service_;
  net::UdpEndpoint rtp_out_;
  dwcs::AdmissionController admission_;
  dwcs::WindowViolationMonitor monitor_;
  rtos::Task& dispatch_task_;
  ingress::TenantDirectory tenants_;
  RtspFrontDoor door_;
};

}  // namespace nistream::session
