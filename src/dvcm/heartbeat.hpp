// DVCM heartbeat extension + host-side watchdog.
//
// The liveness protocol the paper's testbed never needed: the host
// periodically invokes the heartbeat instruction; the NI's dispatch task acks
// it as an unsolicited outbound notification (w2 == 0 — call cookies start at
// 1, so the acks bypass the reply pump's pending-call matching). The ack
// carries the probe sequence number and the board's incarnation counter, so
// the watchdog can distinguish "recovered from a hang, state intact" from
// "rebooted, state wiped and needs re-admission".
//
// Because the ack rides the normal path — dispatch task, board CPU charges,
// outbound FIFO — every real failure mode silences it for the right reason:
// a crashed board discards the probe (VcmRuntime's alive() gate), a hung one
// never schedules the dispatch task's reply in time, an I2O fault eats the
// message in either direction. The watchdog cannot be fooled by a dead board
// that "still would have answered".
//
// The host watchdog sends a probe, waits one timeout, and checks the ack
// arrived; kWatchdogMaxMissed consecutive silent probes trip it (so a single
// dropped message never triggers failover). While tripped it keeps probing
// with exponential backoff, and an ack — whenever the board comes back —
// fires the recovery callback with the board's current incarnation.
#pragma once

#include <cstdint>
#include <functional>

#include "dvcm/host_api.hpp"
#include "dvcm/instruction.hpp"
#include "dvcm/runtime.hpp"
#include "sim/coro.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace nistream::dvcm {

/// Heartbeat instruction id (extension range, above the TCP-offload block).
inline constexpr InstructionId kHeartbeatPing = kExtensionBase + 0x400;

/// NI-side half: acks each probe with (w0 = probe seq, w1 = incarnation).
class HeartbeatExtension final : public ExtensionModule {
 public:
  [[nodiscard]] const char* name() const override { return "heartbeat"; }

  void install(VcmRuntime& runtime) override {
    runtime_ = &runtime;
    runtime.registry().add(kHeartbeatPing, [this](const hw::I2oMessage& m) {
      ++acked_;
      hw::I2oMessage ack;
      ack.function = kHeartbeatPing | kReplyFlag;
      ack.w0 = m.w0;  // probe sequence number
      ack.w1 = runtime_->board().health() != nullptr
                   ? runtime_->board().health()->incarnation()
                   : 0;
      // w2 stays 0: unsolicited notification, not a call reply.
      runtime_->board().i2o().post_outbound(std::move(ack));
    });
  }

  [[nodiscard]] std::uint64_t acked() const { return acked_; }

 private:
  VcmRuntime* runtime_ = nullptr;
  std::uint64_t acked_ = 0;
};

/// Watchdog timing: a probe every kWatchdogInterval while healthy; one left
/// unanswered for kWatchdogTimeout is a miss; kWatchdogMaxMissed consecutive
/// misses trip the watchdog; once tripped, the probe interval grows by
/// kWatchdogBackoffFactor up to kWatchdogMaxBackoff.
inline constexpr sim::Time kWatchdogInterval = sim::Time::ms(100);
inline constexpr sim::Time kWatchdogTimeout = sim::Time::ms(50);
inline constexpr int kWatchdogMaxMissed = 3;
inline constexpr double kWatchdogBackoffFactor = 2.0;
inline constexpr sim::Time kWatchdogMaxBackoff = sim::Time::ms(1600);

/// Host-side half. Owns the probe loop; reports through two callbacks:
///   on_trip(now)                  — kWatchdogMaxMissed probes unanswered
///   on_recovery(now, incarnation) — first ack after a trip
class HostWatchdog {
 public:
  using TripHandler = std::function<void(sim::Time)>;
  using RecoveryHandler = std::function<void(sim::Time, std::uint64_t)>;

  /// `initial_delay` comes before the first probe. A cluster runs one
  /// watchdog per board; staggering their phases keeps N probe bursts from
  /// landing on the same simulation instant (and, on real hardware, the
  /// same PCI cycle).
  HostWatchdog(sim::Engine& engine, VcmHostApi& api,
               sim::Time initial_delay = sim::Time::zero())
      : engine_{engine}, api_{api}, initial_delay_{initial_delay} {
    api_.set_notification_handler([this](const hw::I2oMessage& m) {
      if (m.function != (kHeartbeatPing | kReplyFlag)) return;
      last_ack_seq_ = m.w0;
      last_ack_incarnation_ = m.w1;
      ++acks_;
    });
  }

  HostWatchdog(const HostWatchdog&) = delete;
  HostWatchdog& operator=(const HostWatchdog&) = delete;

  void set_on_trip(TripHandler h) { on_trip_ = std::move(h); }
  void set_on_recovery(RecoveryHandler h) { on_recovery_ = std::move(h); }

  /// Spawn the probe loop. Runs until stop().
  void start() {
    running_ = true;
    [](HostWatchdog& self) -> sim::Coro {
      if (self.initial_delay_ > sim::Time::zero()) {
        co_await sim::Delay{self.engine_, self.initial_delay_};
      }
      while (self.running_) {
        const std::uint64_t seq = ++self.probe_seq_;
        co_await self.api_.invoke(kHeartbeatPing, /*w0=*/seq);
        co_await sim::Delay{self.engine_, kWatchdogTimeout};
        if (!self.running_) co_return;
        if (self.last_ack_seq_ >= seq) {
          self.on_ack();
        } else {
          self.on_miss();
        }
        const sim::Time gap = self.probe_gap_ > kWatchdogTimeout
                                  ? self.probe_gap_ - kWatchdogTimeout
                                  : sim::Time::zero();
        co_await sim::Delay{self.engine_, gap};
      }
    }(*this).detach();
  }

  void stop() { running_ = false; }

  [[nodiscard]] bool tripped() const { return tripped_; }
  [[nodiscard]] std::uint64_t acks_received() const { return acks_; }
  [[nodiscard]] std::uint64_t trips() const { return trips_; }
  [[nodiscard]] std::uint64_t recoveries() const { return recoveries_; }
  [[nodiscard]] std::uint64_t last_ack_incarnation() const {
    return last_ack_incarnation_;
  }

 private:
  void on_ack() {
    missed_ = 0;
    if (tripped_) {
      tripped_ = false;
      ++recoveries_;
      probe_gap_ = kWatchdogInterval;
      if (on_recovery_) on_recovery_(engine_.now(), last_ack_incarnation_);
    }
  }

  void on_miss() {
    ++missed_;
    if (!tripped_ && missed_ >= kWatchdogMaxMissed) {
      tripped_ = true;
      ++trips_;
      if (on_trip_) on_trip_(engine_.now());
    }
    if (tripped_) {
      // Exponential backoff: a dead board should not eat probe bandwidth.
      const double next_us = probe_gap_.to_us() * kWatchdogBackoffFactor;
      probe_gap_ = next_us < kWatchdogMaxBackoff.to_us()
                       ? sim::Time::us(next_us)
                       : kWatchdogMaxBackoff;
    }
  }

  sim::Engine& engine_;
  VcmHostApi& api_;
  sim::Time initial_delay_;
  TripHandler on_trip_;
  RecoveryHandler on_recovery_;
  sim::Time probe_gap_ = kWatchdogInterval;
  std::uint64_t probe_seq_ = 0;
  std::uint64_t last_ack_seq_ = 0;
  std::uint64_t last_ack_incarnation_ = 0;
  std::uint64_t acks_ = 0;
  std::uint64_t trips_ = 0;
  std::uint64_t recoveries_ = 0;
  int missed_ = 0;
  bool tripped_ = false;
  bool running_ = false;
};

}  // namespace nistream::dvcm
