// Per-component fault injectors: a policy, a private deterministic RNG
// stream, and counters for every fault actually injected.
//
// Each hw model holds an optional pointer to its injector (null by default).
// The hooks are written so a null injector costs exactly one branch and a
// zero-rate injector draws no random numbers — runs with fault injection
// disabled are bit-identical (same charges, same RNG consumption, same event
// order) to runs built before this subsystem existed.
#pragma once

#include <cstdint>

#include "fault/policy.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace nistream::fault {

namespace detail {

/// One fault draw at `rate`, counted in `count` when it hits. A rate of zero
/// or less returns false without drawing, so a disabled fault leaves the
/// injector's RNG stream untouched.
inline bool draw(sim::Rng& rng, double rate, std::uint64_t& count) {
  if (rate <= 0.0 || !rng.chance(rate)) return false;
  ++count;
  return true;
}

}  // namespace detail

class LinkFaultInjector {
 public:
  LinkFaultInjector(const LinkFaultPolicy& policy, sim::Rng rng)
      : policy_{policy}, rng_{rng} {}

  /// Should this frame be discarded at the switch?
  bool drop_frame() {
    return detail::draw(rng_, policy_.frame_loss_rate, drops_);
  }

  /// Should this frame arrive with a bad CRC?
  bool corrupt_frame() {
    return detail::draw(rng_, policy_.frame_corrupt_rate, corruptions_);
  }

  [[nodiscard]] const LinkFaultPolicy& policy() const { return policy_; }
  [[nodiscard]] std::uint64_t drops() const { return drops_; }
  [[nodiscard]] std::uint64_t corruptions() const { return corruptions_; }

 private:
  LinkFaultPolicy policy_;
  sim::Rng rng_;
  std::uint64_t drops_ = 0;
  std::uint64_t corruptions_ = 0;
};

class I2oFaultInjector {
 public:
  I2oFaultInjector(const I2oFaultPolicy& policy, sim::Rng rng)
      : policy_{policy}, rng_{rng} {}

  bool drop_inbound() {
    return detail::draw(rng_, policy_.inbound_drop_rate, inbound_drops_);
  }

  bool drop_outbound() {
    return detail::draw(rng_, policy_.outbound_drop_rate, outbound_drops_);
  }

  [[nodiscard]] const I2oFaultPolicy& policy() const { return policy_; }
  [[nodiscard]] std::uint64_t inbound_drops() const { return inbound_drops_; }
  [[nodiscard]] std::uint64_t outbound_drops() const { return outbound_drops_; }

 private:
  I2oFaultPolicy policy_;
  sim::Rng rng_;
  std::uint64_t inbound_drops_ = 0;
  std::uint64_t outbound_drops_ = 0;
};

class PciFaultInjector {
 public:
  PciFaultInjector(const PciFaultPolicy& policy, sim::Rng rng)
      : policy_{policy}, rng_{rng} {}

  /// Did this DMA transaction abort? (The bus retries up to max_retries.)
  bool transaction_error() {
    return detail::draw(rng_, policy_.transaction_error_rate, errors_);
  }

  [[nodiscard]] const PciFaultPolicy& policy() const { return policy_; }
  [[nodiscard]] std::uint64_t errors() const { return errors_; }

 private:
  PciFaultPolicy policy_;
  sim::Rng rng_;
  std::uint64_t errors_ = 0;
};

class DiskFaultInjector {
 public:
  DiskFaultInjector(const DiskFaultPolicy& policy, sim::Rng rng)
      : policy_{policy}, rng_{rng} {}

  bool read_error() {
    return detail::draw(rng_, policy_.read_error_rate, read_errors_);
  }

  bool latency_spike() {
    return detail::draw(rng_, policy_.latency_spike_rate, spikes_);
  }

  [[nodiscard]] const DiskFaultPolicy& policy() const { return policy_; }
  [[nodiscard]] std::uint64_t read_errors() const { return read_errors_; }
  [[nodiscard]] std::uint64_t spikes() const { return spikes_; }

 private:
  DiskFaultPolicy policy_;
  sim::Rng rng_;
  std::uint64_t read_errors_ = 0;
  std::uint64_t spikes_ = 0;
};

}  // namespace nistream::fault
