// 100 Mbps switched-Ethernet model.
//
// The testbed connects the scheduler card's Ethernet ports to remote MPEG
// clients through a 100 Mbps switch. The model is store-and-forward: a frame
// serializes onto its source port's uplink at line rate, crosses the switch
// (fixed latency), serializes again on the destination downlink, and is then
// delivered to the receiving device's callback. Each direction of each port
// is a FIFO drained at line rate, so concurrent streams contend exactly as
// they would on the wire. Endpoint protocol-stack costs are charged by the
// net layer, not here.
//
// Frames in flight wait on their destination port, not in the event heap.
// Each downlink delivers in send order at strictly increasing times, so its
// frames form a FIFO whose head is always its earliest event. send() takes an
// engine ticket per frame and appends the frame to the port's queue; the
// switch keeps one delivery event armed per non-empty downlink, and each
// delivery arms the next head under that frame's own ticket. Every frame
// therefore lands at exactly the (time, sequence) place a per-frame event
// would have had, while the heap holds O(busy links) entries instead of
// O(frames on the wire). The queues are intrusive lists threaded through one
// free-listed node pool, grown in fixed-size chunks so growth never moves a
// frame in flight.
//
// A device that goes away detaches its port. The port keeps its number (port
// numbers are never reused) and bumps its generation; each queued frame
// carries the generation it was addressed to, so frames queued before the
// detach are dropped on landing, and frames sent to the port afterwards are
// dropped at the switch. Either way the receiver of a destroyed device is
// never called.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "fault/injector.hpp"
#include "hw/calibration.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace nistream::hw {

/// A link-level frame. `payload` is an opaque, shared, endpoint-typed body;
/// the wire only cares about `bytes`. Bodies are immutable once sent, so a
/// retransmission can share the body of the first transmission.
struct EthFrame {
  std::uint32_t bytes = 0;           // payload size on the wire
  std::uint64_t tag = 0;             // endpoint cookie (e.g. stream id)
  std::shared_ptr<const void> payload;  // endpoint-typed content
  int src_port = -1;
  sim::Time injected_at;             // when handed to the source port
  bool corrupted = false;            // bad CRC on delivery; receivers discard
};

class EthernetSwitch {
 public:
  using Receiver = std::function<void(const EthFrame&)>;

  EthernetSwitch(sim::Engine& engine, const EthernetParams& p = kFastEthernet)
      : engine_{engine}, params_{p}, loss_rng_{p.loss_seed} {}

  EthernetSwitch(const EthernetSwitch&) = delete;
  EthernetSwitch& operator=(const EthernetSwitch&) = delete;

  /// Attach a device; returns its port number. `rx` fires when a frame has
  /// fully arrived at the device.
  int add_port(Receiver rx) {
    ports_.push_back(Port{.rx = std::move(rx)});
    return static_cast<int>(ports_.size()) - 1;
  }

  /// Detach the device on `port` (see the header comment). Its receiver is
  /// released here and never called again.
  void detach(int port) {
    assert(attached(port));
    Port& p = ports_[static_cast<std::size_t>(port)];
    p.rx = nullptr;
    ++p.gen;
  }

  [[nodiscard]] bool attached(int port) const {
    return valid(port) && ports_[static_cast<std::size_t>(port)].rx;
  }

  /// Send `frame` from `src` to `dst`. Delivery time accounts for uplink
  /// serialization, switch latency, downlink serialization and any queueing
  /// on both directions.
  void send(int src, int dst, EthFrame frame) {
    assert(valid(src) && valid(dst));
    frame.src_port = src;
    frame.injected_at = engine_.now();
    const sim::Time wire = wire_time(frame.bytes);

    Port& sp = ports_[static_cast<std::size_t>(src)];
    const sim::Time up_start = std::max(engine_.now(), sp.uplink_busy_until);
    const sim::Time at_switch = up_start + wire;
    sp.uplink_busy_until = at_switch;

    // Loss model: the frame occupied the uplink, but is discarded at the
    // switch (CRC error / buffer overrun) and never reaches the downlink.
    if (params_.loss_rate > 0 && loss_rng_.chance(params_.loss_rate)) {
      ++frames_lost_;
      return;
    }
    if (fault_ != nullptr) {
      if (fault_->drop_frame()) {
        ++frames_lost_;
        return;
      }
      // Corrupted frames still occupy the downlink; the receiving endpoint
      // sees the bad CRC and discards.
      frame.corrupted = fault_->corrupt_frame();
    }

    Port& dp = ports_[static_cast<std::size_t>(dst)];
    if (!dp.rx) {  // detached: nothing to forward to
      ++frames_to_detached_;
      return;
    }
    const sim::Time down_start =
        std::max(at_switch + params_.switch_latency, dp.downlink_busy_until);
    const sim::Time delivered = down_start + wire;
    dp.downlink_busy_until = delivered;

    bytes_switched_ += frame.bytes;
    const std::uint32_t n = acquire_node();
    InFlight& f = node(n);
    f.frame = std::move(frame);
    f.at = delivered;
    f.ticket = engine_.reserve_ticket();
    f.gen = dp.gen;
    f.next = kNone;
    if (dp.tail == kNone) {
      dp.head = n;
      dp.tail = n;
      arm(dst);
    } else {
      node(dp.tail).next = n;
      dp.tail = n;
    }
  }

  /// Serialization time of one frame at line rate (includes L2 overhead).
  [[nodiscard]] sim::Time wire_time(std::uint32_t bytes) const {
    const double bits = static_cast<double>(bytes + params_.overhead_bytes) * 8.0;
    return sim::Time::sec(bits / params_.bits_per_sec);
  }

  [[nodiscard]] std::uint64_t bytes_switched() const { return bytes_switched_; }
  [[nodiscard]] std::uint64_t frames_lost() const { return frames_lost_; }
  /// Frames dropped because their destination port was detached.
  [[nodiscard]] std::uint64_t frames_to_detached() const {
    return frames_to_detached_;
  }
  /// Frames queued on downlinks, waiting to be delivered.
  [[nodiscard]] std::size_t frames_in_flight() const { return in_flight_; }
  [[nodiscard]] const EthernetParams& params() const { return params_; }
  [[nodiscard]] sim::Engine& engine() { return engine_; }

  /// Attach a fault injector (nullptr detaches). Injection happens at the
  /// switch, after uplink occupancy is accounted, matching the built-in loss
  /// model's position.
  void set_fault(fault::LinkFaultInjector* inj) { fault_ = inj; }

 private:
  static constexpr std::uint32_t kNone = 0xFFFFFFFF;
  static constexpr std::uint32_t kChunkNodes = 1024;

  struct Port {
    Receiver rx;
    sim::Time uplink_busy_until = sim::Time::zero();
    sim::Time downlink_busy_until = sim::Time::zero();
    std::uint32_t head = kNone;  // downlink queue: next frame to deliver
    std::uint32_t tail = kNone;
    std::uint32_t gen = 0;       // bumped by detach()
  };

  /// A frame on its way down a port's downlink; a pool node.
  struct InFlight {
    EthFrame frame;
    sim::Time at;        // delivery instant
    sim::Ticket ticket;  // its place among events at that instant
    std::uint32_t next = kNone;  // queue successor, or free-list successor
    std::uint32_t gen = 0;       // destination port's generation at send
  };

  [[nodiscard]] bool valid(int p) const {
    return p >= 0 && static_cast<std::size_t>(p) < ports_.size();
  }

  [[nodiscard]] InFlight& node(std::uint32_t n) {
    return chunks_[n / kChunkNodes][n % kChunkNodes];
  }

  std::uint32_t acquire_node() {
    ++in_flight_;
    if (free_ != kNone) {
      const std::uint32_t n = free_;
      free_ = node(n).next;
      return n;
    }
    if (carved_ == chunks_.size() * kChunkNodes) {
      chunks_.push_back(std::make_unique<InFlight[]>(kChunkNodes));
    }
    return carved_++;
  }

  void release_node(std::uint32_t n) {
    --in_flight_;
    node(n).next = free_;
    free_ = n;
  }

  /// Hand the engine the delivery event of `dst`'s queue head.
  void arm(int dst) {
    const InFlight& h = node(ports_[static_cast<std::size_t>(dst)].head);
    engine_.schedule_at(h.at, h.ticket, [this, dst] { deliver(dst); });
  }

  void deliver(int dst) {
    Port& p = ports_[static_cast<std::size_t>(dst)];
    const std::uint32_t n = p.head;
    InFlight& f = node(n);
    const EthFrame frame = std::move(f.frame);
    p.head = f.next;
    if (p.head == kNone) {
      p.tail = kNone;
    } else {
      arm(dst);
    }
    const bool current = f.gen == p.gen;
    release_node(n);
    if (current) {
      p.rx(frame);
    } else {
      ++frames_to_detached_;
    }
  }

  sim::Engine& engine_;
  EthernetParams params_;
  sim::Rng loss_rng_;
  std::vector<Port> ports_;
  // In-flight frame pool: chunked so growth never moves a queued frame.
  std::vector<std::unique_ptr<InFlight[]>> chunks_;
  std::uint32_t carved_ = 0;  // nodes ever handed out
  std::uint32_t free_ = kNone;
  std::size_t in_flight_ = 0;
  std::uint64_t bytes_switched_ = 0;
  std::uint64_t frames_lost_ = 0;
  std::uint64_t frames_to_detached_ = 0;
  fault::LinkFaultInjector* fault_ = nullptr;
};

}  // namespace nistream::hw
