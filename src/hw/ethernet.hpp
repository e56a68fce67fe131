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
// O(frames on the wire). The queues are lists threaded through a
// sim::HandleTable of frames.
//
// Ports live in a sim::HandleTable too. detach() releases the device's
// receiver at once; the port's slot is erased (its generation bumped) once
// its downlink has drained, and the next add_port() reuses it with fresh
// link times. A port address carries the slot's generation next to its
// index, so it names one occupant, never a later one. A port is never
// reissued while frames are queued on it, so a queued frame is for the
// current occupant exactly when the port is still attached: frames queued
// before a detach are dropped on landing, and frames sent to the old address
// afterwards are dropped at the switch. A destroyed device's receiver is
// never called, and no device sees a frame meant for an earlier occupant.
//
// A port entry is 40 bytes: its link times, its queue's ends and a two-word
// receiver (FrameReceiver; a std::function would take 32 bytes). With its
// table word a port costs 44 bytes, and a storm's ~207k ports (two per
// client) take 8.9 MiB.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "fault/injector.hpp"
#include "hw/calibration.hpp"
#include "sim/engine.hpp"
#include "sim/handle_table.hpp"
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

/// What a port calls when a frame lands, in two words: a function and the
/// object it runs on. A callable that is trivially copyable and no bigger
/// than a pointer — a [this] lambda, one capturing a single reference, one
/// capturing nothing — is stored in the object word. Any other callable is
/// moved into a heap-allocated std::function that the receiver owns (and
/// copies with it). An empty receiver is false.
class FrameReceiver {
 public:
  FrameReceiver() = default;
  FrameReceiver(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FrameReceiver> &&
             !std::is_same_v<std::remove_cvref_t<F>, std::nullptr_t> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&,
                                   const EthFrame&>)
  FrameReceiver(F&& fn) {  // NOLINT(google-explicit-constructor)
    using Fn = std::remove_cvref_t<F>;
    if constexpr (kInline<Fn>) {
      ::new (static_cast<void*>(obj_)) Fn(std::forward<F>(fn));
      call_ = [](void* obj, const EthFrame& f) {
        (*std::launder(static_cast<Fn*>(obj)))(f);
      };
    } else {
      ::new (static_cast<void*>(obj_)) Boxed*(new Boxed(std::forward<F>(fn)));
      call_ = &call_boxed;
    }
  }

  FrameReceiver(const FrameReceiver& other) : call_{other.call_} {
    if (call_ == &call_boxed) {
      ::new (static_cast<void*>(obj_)) Boxed*(new Boxed(*other.boxed()));
    } else {
      std::memcpy(obj_, other.obj_, sizeof(obj_));
    }
  }
  FrameReceiver(FrameReceiver&& other) noexcept { take(other); }
  FrameReceiver& operator=(FrameReceiver other) noexcept {
    reset();
    take(other);
    return *this;
  }
  ~FrameReceiver() { reset(); }

  void reset() noexcept {
    if (call_ == &call_boxed) delete boxed();
    call_ = nullptr;
  }

  [[nodiscard]] explicit operator bool() const { return call_ != nullptr; }

  /// Precondition: non-empty.
  void operator()(const EthFrame& f) const { call_(obj_, f); }

 private:
  using Boxed = std::function<void(const EthFrame&)>;
  template <typename Fn>
  static constexpr bool kInline =
      sizeof(Fn) <= sizeof(void*) && alignof(Fn) <= alignof(void*) &&
      std::is_trivially_copyable_v<Fn> && std::is_trivially_destructible_v<Fn>;

  static void call_boxed(void* obj, const EthFrame& f) {
    (**std::launder(static_cast<Boxed**>(obj)))(f);
  }
  [[nodiscard]] Boxed* boxed() const {
    return *std::launder(reinterpret_cast<Boxed* const*>(obj_));
  }
  void take(FrameReceiver& other) noexcept {
    std::memcpy(obj_, other.obj_, sizeof(obj_));
    call_ = std::exchange(other.call_, nullptr);
  }

  alignas(void*) mutable std::byte obj_[sizeof(void*)] = {};
  void (*call_)(void* obj, const EthFrame& f) = nullptr;
};

class EthernetSwitch {
 public:
  using Receiver = FrameReceiver;

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
  /// fully arrived at the device. Reuses a recycled port if there is one;
  /// throws std::length_error once 2^kIndexBits ports are in use.
  int add_port(Receiver rx) {
    const std::uint32_t i = ports_.emplace(Port{.rx = std::move(rx)});
    return static_cast<int>(i | (ports_.generation(i) << kIndexBits));
  }

  /// Detach the device at `port` (see the header comment).
  void detach(int port) {
    assert(attached(port));
    const std::uint32_t i = index_of(port);
    Port& p = ports_[i];
    p.rx.reset();
    if (p.head == kNone) ports_.erase(i);
  }

  /// True while `port` names the device attached there.
  [[nodiscard]] bool attached(int port) const {
    return port >= 0 && ports_.live(index_of(port), generation_of(port)) &&
           ports_[index_of(port)].rx;
  }

  /// Send `frame` from `src` (whose slot must be live) to `dst`. Delivery
  /// time accounts for uplink serialization, switch latency, downlink
  /// serialization and any queueing on both directions.
  void send(int src, int dst, EthFrame frame) {
    assert(src >= 0 && ports_.live(index_of(src), generation_of(src)));
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
    const std::uint32_t n = frames_.emplace(
        InFlight{std::move(frame), delivered, engine_.reserve_ticket()});
    if (dp.tail == kNone) {
      dp.head = n;
      dp.tail = n;
      arm(di);
    } else {
      frames_[dp.tail].next = n;
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
  [[nodiscard]] std::size_t frames_in_flight() const {
    return frames_.live_count();
  }
  /// Ports in the table, attached, free or retired: the most attached at
  /// once, plus any retired.
  [[nodiscard]] std::size_t port_table_size() const { return ports_.size(); }
  [[nodiscard]] const EthernetParams& params() const { return params_; }
  [[nodiscard]] sim::Engine& engine() { return engine_; }

  /// Attach a fault injector (nullptr detaches). Injection happens at the
  /// switch, after uplink occupancy is accounted, matching the built-in loss
  /// model's position.
  void set_fault(fault::LinkFaultInjector* inj) { fault_ = inj; }

 private:
  static constexpr std::uint32_t kNone = sim::Handle::kNone;
  static constexpr std::uint32_t kMaxPorts = 1u << kIndexBits;
  static constexpr std::uint32_t kGenerations = 1u << (31 - kIndexBits);

  struct Port {
    Receiver rx;
    sim::Time uplink_busy_until = sim::Time::zero();
    sim::Time downlink_busy_until = sim::Time::zero();
    std::uint32_t head = kNone;  // downlink queue: next frame to deliver
    std::uint32_t tail = kNone;
  };
  static_assert(sizeof(Port) <= 40, "a port entry outgrew 40 bytes");

  /// A frame on its way down a port's downlink.
  struct InFlight {
    EthFrame frame;
    sim::Time at;        // delivery instant
    sim::Ticket ticket;  // its place among events at that instant
    std::uint32_t next = kNone;  // queue successor
  };

  /// Hand the engine the delivery event of port `i`'s queue head.
  void arm(std::uint32_t i) {
    const InFlight& h = frames_[ports_[i].head];
    engine_.schedule_at(h.at, h.ticket, [this, i] { deliver(i); });
  }

  void deliver(std::uint32_t i) {
    Port& p = ports_[i];
    const std::uint32_t n = p.head;
    InFlight& f = frames_[n];
    const EthFrame frame = std::move(f.frame);
    p.head = f.next;
    frames_.erase(n);
    // Queued frames pin their port, so the frame is for the occupant
    // attached now, if there still is one.
    const bool current = static_cast<bool>(p.rx);
    if (p.head != kNone) {
      arm(i);
    } else {
      p.tail = kNone;
      if (!current) ports_.erase(i);
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
  sim::HandleTable<Port> ports_{kMaxPorts, kGenerations};
  sim::HandleTable<InFlight> frames_;
  std::uint64_t bytes_switched_ = 0;
  std::uint64_t frames_lost_ = 0;
  std::uint64_t frames_to_detached_ = 0;
  fault::LinkFaultInjector* fault_ = nullptr;
};

}  // namespace nistream::hw
