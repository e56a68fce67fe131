// Lightweight UDP-style endpoint layer over the Ethernet model.
//
// The I2O boards run board-resident UDP/TCP; clients attach over switched
// 100 Mbps Ethernet. This layer adds what the hw::EthernetSwitch does not
// model: per-endpoint protocol-stack traversal latency (the dominant term of
// the paper's "1.2net" — ~555 us per end on the i960 cards with the data
// cache disabled, much less on host NICs with a tuned host stack).
//
// CPU accounting: the stack latency here is pure pipeline latency. When the
// sender's CPU time matters (the scheduler dispatch loops in the Figure 7-10
// experiments), the sending task additionally consumes CPU through its own
// scheduler — see apps::MediaServer.
//
// Owner-safe teardown: an endpoint's destructor detaches its switch port,
// and every stack-cost event it left pending checks that port before it
// touches the endpoint, so a destroyed endpoint's pending work runs as a
// no-op and its port can go to the next device.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "dwcs/types.hpp"
#include "hw/calibration.hpp"
#include "hw/ethernet.hpp"
#include "mpeg/frame.hpp"
#include "sim/block_pool.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace nistream::net {

/// Application payload carried across the wire.
struct Packet {
  std::uint64_t stream_id = 0;
  std::uint64_t seq = 0;
  std::uint32_t bytes = 0;
  mpeg::FrameType frame_type = mpeg::FrameType::kI;
  sim::Time enqueued_at;     // entry into scheduler queues (queuing delay t0)
  sim::Time dispatched_at;   // when the scheduler released it
  /// Optional endpoint-typed content riding with the packet (the
  /// simulation's zero-copy stand-in for the `bytes` of body data).
  std::shared_ptr<void> body;
};

namespace detail {

/// Packet boxes (the Packet copy plus its shared_ptr control block, fused by
/// allocate_shared) come from their own pool of blocks up to 256 bytes, so
/// after warm-up no packet touches ::operator new.
using PacketBoxPool = sim::detail::BlockPool<32, 8>;
template <typename T>
using PacketBoxAllocator = sim::detail::PoolAllocator<T, PacketBoxPool>;

/// Run `fn` after `delay` unless `port` is detached first: the event reads
/// the switch, which outlives its endpoints, before it touches the endpoint
/// `fn` captured. The port address names one occupant, so a later device on
/// a recycled port does not revive the event.
template <typename Fn>
void schedule_while_attached(sim::Engine& engine, hw::EthernetSwitch& ether,
                             int port, sim::Time delay, Fn fn) {
  engine.schedule_in(delay, [sw = &ether, port, fn = std::move(fn)] {
    if (sw->attached(port)) fn();
  });
}

}  // namespace detail

class UdpEndpoint {
 public:
  using Receiver = std::function<void(const Packet&, sim::Time delivered)>;

  /// `stack_cost` is charged once on send and once on receive.
  UdpEndpoint(sim::Engine& engine, hw::EthernetSwitch& ether,
              sim::Time stack_cost, Receiver rx)
      : engine_{engine}, ether_{ether}, stack_cost_{stack_cost},
        rx_{std::move(rx)} {
    port_ = ether.add_port([this](const hw::EthFrame& f) { on_frame(f); });
  }

  UdpEndpoint(const UdpEndpoint&) = delete;
  UdpEndpoint& operator=(const UdpEndpoint&) = delete;
  ~UdpEndpoint() { ether_.detach(port_); }

  [[nodiscard]] int port() const { return port_; }

  static constexpr std::uint32_t kUdpIpHeaderBytes = 28;

  /// Send `pkt` to the endpoint at `dst_port`. The packet traverses this
  /// end's stack, the switch, and the receiver's stack before delivery. It
  /// waits out the stack in its packet box, which the frame then carries; an
  /// endpoint destroyed before then sends nothing and the box goes back to
  /// its pool.
  void send(int dst_port, Packet pkt) {
    ++sent_;
    bytes_sent_ += pkt.bytes;
    std::shared_ptr<const Packet> box = std::allocate_shared<Packet>(
        detail::PacketBoxAllocator<Packet>{}, std::move(pkt));
    detail::schedule_while_attached(engine_, ether_, port_, stack_cost_,
                                    [this, dst_port, box = std::move(box)] {
      ether_.send(port_, dst_port,
                  hw::EthFrame{.bytes = box->bytes + kUdpIpHeaderBytes,
                               .tag = box->stream_id,
                               .payload = box});
    });
  }

  [[nodiscard]] std::uint64_t packets_sent() const { return sent_; }
  [[nodiscard]] std::uint64_t packets_received() const { return received_; }
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] std::uint64_t corrupt_dropped() const { return corrupt_dropped_; }
  [[nodiscard]] sim::Time stack_cost() const { return stack_cost_; }

 private:
  void on_frame(const hw::EthFrame& f) {
    if (f.corrupted) {
      // Bad CRC: UDP has no retransmit, the datagram is simply gone.
      ++corrupt_dropped_;
      return;
    }
    auto pkt = std::static_pointer_cast<const Packet>(f.payload);
    if (!pkt) return;  // not one of ours
    detail::schedule_while_attached(engine_, ether_, port_, stack_cost_,
                                    [this, pkt] {
      ++received_;
      if (rx_) rx_(*pkt, engine_.now());
    });
  }

  sim::Engine& engine_;
  hw::EthernetSwitch& ether_;
  sim::Time stack_cost_;
  Receiver rx_;
  int port_ = -1;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t corrupt_dropped_ = 0;
};

/// Stack-cost presets (see calibration rationale in hw/calibration.hpp).
inline constexpr sim::Time kNiStackCost = hw::kFastEthernet.stack_traversal;
inline constexpr sim::Time kHostStackCost = sim::Time::us(180);

}  // namespace nistream::net
