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
// A device that goes away detaches its port, and the port is recycled: once
// its downlink queue has drained it goes on a free list, and the next
// add_port() hands it to a new device with fresh link times, so the table
// holds the ports attached at once, not every port ever made. A port
// address carries the port's generation next to its index, the way an
// sim::EventHandle pairs a slot with its generation: detach() bumps the
// generation, so an address names one occupant of a port, never a later
// one. Each queued frame carries the generation it was addressed to; frames
// queued before the detach are dropped on landing, and frames sent to the
// old address afterwards are dropped at the switch, whoever holds the port
// by then. Either way the receiver of a destroyed device is never called,
// and a device never sees a frame meant for an earlier occupant of its port.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
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
  int src_port = -1;                 // the sender's port address
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

  /// A port address is `index | generation << kIndexBits`, a non-negative
  /// int. A port's first occupant has generation 0, so its address is its
  /// index. A port whose 2^(31 - kIndexBits) generations run out is retired
  /// instead of recycled.
  static constexpr int kIndexBits = 21;

  [[nodiscard]] static constexpr std::uint32_t index_of(int addr) {
    return static_cast<std::uint32_t>(addr) & (kMaxPorts - 1);
  }
  [[nodiscard]] static constexpr std::uint32_t generation_of(int addr) {
    return static_cast<std::uint32_t>(addr) >> kIndexBits;
  }

  /// Attach a device; returns its port address. `rx` fires when a frame has
  /// fully arrived at the device. Reuses a recycled port if there is one.
  int add_port(Receiver rx) {
    std::uint32_t i;
    if (!free_ports_.empty()) {
      i = free_ports_.back();
      free_ports_.pop_back();
      Port& p = ports_[i];
      p.uplink_busy_until = sim::Time::zero();
      p.downlink_busy_until = sim::Time::zero();
      p.rx = std::move(rx);
    } else {
      if (ports_.size() == kMaxPorts) {
        throw std::length_error("EthernetSwitch: port table full");
      }
      i = static_cast<std::uint32_t>(ports_.size());
      ports_.push_back(Port{.rx = std::move(rx)});
    }
    return static_cast<int>(i | (ports_[i].gen << kIndexBits));
  }

  /// Detach the device at `port` (see the header comment). Its receiver is
  /// released here and never called again.
  void detach(int port) {
    assert(attached(port));
    const std::uint32_t i = index_of(port);
    Port& p = ports_[i];
    p.rx = nullptr;
    ++p.gen;
    if (p.head == kNone) recycle(i);
  }

  /// True while `port` names the device attached there.
  [[nodiscard]] bool attached(int port) const {
    if (!valid(port)) return false;
    const Port& p = ports_[index_of(port)];
    return p.rx && p.gen == generation_of(port);
  }

  /// Send `frame` from `src` to `dst`. Delivery time accounts for uplink
  /// serialization, switch latency, downlink serialization and any queueing
  /// on both directions.
  void send(int src, int dst, EthFrame frame) {
    assert(valid(src) && valid(dst));
    frame.src_port = src;
    frame.injected_at = engine_.now();
    const sim::Time wire = wire_time(frame.bytes);

    Port& sp = ports_[index_of(src)];
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

    if (!attached(dst)) {  // that occupant is gone: nothing to forward to
      ++frames_to_detached_;
      return;
    }
    const std::uint32_t di = index_of(dst);
    Port& dp = ports_[di];
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
      arm(di);
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
  /// Ports in the table, attached or free: the most attached at once.
  [[nodiscard]] std::size_t port_table_size() const { return ports_.size(); }
  [[nodiscard]] const EthernetParams& params() const { return params_; }
  [[nodiscard]] sim::Engine& engine() { return engine_; }

  /// Attach a fault injector (nullptr detaches). Injection happens at the
  /// switch, after uplink occupancy is accounted, matching the built-in loss
  /// model's position.
  void set_fault(fault::LinkFaultInjector* inj) { fault_ = inj; }

 private:
  static constexpr std::uint32_t kNone = 0xFFFFFFFF;
  static constexpr std::uint32_t kChunkNodes = 1024;
  static constexpr std::uint32_t kMaxPorts = 1u << kIndexBits;
  static constexpr std::uint32_t kGenerations = 1u << (31 - kIndexBits);

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
    return p >= 0 && index_of(p) < ports_.size();
  }

  /// Put detached port `i`, its downlink drained, on the free list.
  void recycle(std::uint32_t i) {
    if (ports_[i].gen < kGenerations) free_ports_.push_back(i);
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

  /// Hand the engine the delivery event of port `i`'s queue head.
  void arm(std::uint32_t i) {
    const InFlight& h = node(ports_[i].head);
    engine_.schedule_at(h.at, h.ticket, [this, i] { deliver(i); });
  }

  void deliver(std::uint32_t i) {
    Port& p = ports_[i];
    const std::uint32_t n = p.head;
    InFlight& f = node(n);
    const EthFrame frame = std::move(f.frame);
    p.head = f.next;
    const bool current = f.gen == p.gen;
    release_node(n);
    if (p.head != kNone) {
      arm(i);
    } else {
      p.tail = kNone;
      if (!p.rx) recycle(i);
    }
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
  std::vector<std::uint32_t> free_ports_;  // detached, drained, reusable
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
