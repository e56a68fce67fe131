// Remote DVCM invocation: the "Distributed" in DVCM.
//
// Paper §1: "for distributed implementations of media streams on the cluster
// server, traffic elimination also occurs for media streams entering the NI
// from the network linking it to other cluster nodes." A DVCM instance on
// one board can invoke instructions on another board across the cluster
// interconnect — a stream producer on node A feeds the DWCS extension on
// node B's scheduler-NI without either host touching a frame.
//
// RemoteVcmPort attaches to a runtime and turns arriving instruction frames
// into registry dispatches (charging the NI CPU for the network-side
// dispatch, like the I2O path does). RemoteVcmClient sends them over the raw
// switched LAN (lossless in the paper's testbed). For a degraded segment,
// ReliableRemoteVcmClient/Port run the same instructions over TcpLite, so
// every instruction arrives exactly once and in order (see
// tests/dvcm/remote_test.cpp).
//
// Teardown follows the net layer's: each endpoint detaches its switch port
// when destroyed, and its pending stack-cost events check that port before
// they touch the endpoint. A port's dispatch task checks it after every
// wait, so a port may be destroyed even mid-dispatch.
#pragma once

#include <cstdint>
#include <memory>

#include "dvcm/runtime.hpp"
#include "hw/ethernet.hpp"
#include "net/tcplite.hpp"
#include "sim/coro.hpp"

namespace nistream::dvcm {

/// An instruction in flight between two boards. `wire_bytes` sizes the frame
/// on the interconnect (instruction header + any bulk data that would travel
/// with it); `payload` is the simulation's zero-copy stand-in for that bulk.
struct RemoteInstruction {
  InstructionId id = 0;
  std::uint64_t w0 = 0;
  std::uint64_t w1 = 0;
  std::shared_ptr<void> payload;
};

namespace detail {

using Inbox = sim::Mailbox<std::shared_ptr<const RemoteInstruction>>;

struct DispatchCounts {
  std::uint64_t dispatched = 0;
  std::uint64_t unknown = 0;
};

/// A remote port's network-dispatch task, peer of the I2O dispatch task:
/// dispatch each instruction through the registry and charge the NI CPU.
/// The inbox lives in this frame (`inbox` points at it from the start) and
/// the port is held by switch address, so after every wait the loop checks
/// the port is attached before touching its counts, as
/// net::detail::schedule_while_attached does for events.
inline sim::Coro dispatch_loop(VcmRuntime& runtime, rtos::Task& task,
                               hw::EthernetSwitch& ether, int port,
                               Inbox*& inbox, DispatchCounts& counts) {
  Inbox box{ether.engine()};
  inbox = &box;
  for (;;) {
    const auto ri = co_await box.receive();
    if (!ether.attached(port)) co_return;
    const std::int64_t before = runtime.board().cpu().cycles();
    hw::I2oMessage msg;
    msg.function = ri->id;
    msg.w0 = ri->w0;
    msg.w1 = ri->w1;
    msg.payload = ri->payload;
    const bool known = runtime.registry().dispatch(msg);
    const std::int64_t handler = runtime.board().cpu().cycles() - before;
    co_await task.consume_cycles(VcmRuntime::kDispatchCycles + handler);
    if (!ether.attached(port)) co_return;
    ++(known ? counts.dispatched : counts.unknown);
  }
}

}  // namespace detail

class RemoteVcmPort {
 public:
  static constexpr std::uint32_t kHeaderBytes = 24;

  RemoteVcmPort(VcmRuntime& runtime, hw::EthernetSwitch& ether,
                sim::Time stack_cost)
      : ether_{ether}, stack_cost_{stack_cost} {
    port_ = ether.add_port([this](const hw::EthFrame& f) { on_frame(f); });
    detail::dispatch_loop(runtime, runtime.kernel().spawn("tVcmRemote", 61),
                          ether, port_, inbox_, counts_)
        .detach();
  }

  RemoteVcmPort(const RemoteVcmPort&) = delete;
  RemoteVcmPort& operator=(const RemoteVcmPort&) = delete;
  ~RemoteVcmPort() { ether_.detach(port_); }

  [[nodiscard]] int port() const { return port_; }
  [[nodiscard]] std::uint64_t dispatched() const { return counts_.dispatched; }
  [[nodiscard]] std::uint64_t unknown_instructions() const {
    return counts_.unknown;
  }

 private:
  void on_frame(const hw::EthFrame& f) {
    auto ri = std::static_pointer_cast<const RemoteInstruction>(f.payload);
    if (!ri) return;
    net::detail::schedule_while_attached(ether_.engine(), ether_, port_,
                                         stack_cost_,
                                         [this, ri] { inbox_->send(ri); });
  }

  hw::EthernetSwitch& ether_;
  sim::Time stack_cost_;
  int port_ = -1;
  detail::Inbox* inbox_ = nullptr;  // in the dispatch task's frame
  detail::DispatchCounts counts_;
};

class RemoteVcmClient {
 public:
  RemoteVcmClient(sim::Engine& engine, hw::EthernetSwitch& ether,
                  sim::Time stack_cost)
      : engine_{engine}, ether_{ether}, stack_cost_{stack_cost} {
    port_ = ether.add_port([](const hw::EthFrame&) {});
  }

  RemoteVcmClient(const RemoteVcmClient&) = delete;
  RemoteVcmClient& operator=(const RemoteVcmClient&) = delete;
  ~RemoteVcmClient() { ether_.detach(port_); }

  [[nodiscard]] int port() const { return port_; }

  /// Fire a remote instruction carrying `bulk_bytes` of data on the wire.
  void invoke(int dst_port, InstructionId id, std::uint64_t w0,
              std::shared_ptr<void> payload, std::uint32_t bulk_bytes = 0,
              std::uint64_t w1 = 0) {
    auto ri = std::make_shared<RemoteInstruction>();
    ri->id = id;
    ri->w0 = w0;
    ri->w1 = w1;
    ri->payload = std::move(payload);
    net::detail::schedule_while_attached(
        engine_, ether_, port_, stack_cost_,
        [this, dst_port, ri, bulk_bytes] {
          ether_.send(
              port_, dst_port,
              hw::EthFrame{.bytes = RemoteVcmPort::kHeaderBytes + bulk_bytes,
                           .tag = ri->id, .payload = ri});
        });
    ++sent_;
  }

  [[nodiscard]] std::uint64_t sent() const { return sent_; }

 private:
  sim::Engine& engine_;
  hw::EthernetSwitch& ether_;
  sim::Time stack_cost_;
  int port_ = -1;
  std::uint64_t sent_ = 0;
};

/// Reliable variant: instructions travel as TcpLite payload bodies.
class ReliableRemoteVcmPort {
 public:
  ReliableRemoteVcmPort(VcmRuntime& runtime, hw::EthernetSwitch& ether,
                        sim::Time stack_cost)
      : rx_{runtime.board().engine(), ether, stack_cost,
            [this](const net::Packet& p, sim::Time) { deliver(p); }} {
    detail::dispatch_loop(runtime,
                          runtime.kernel().spawn("tVcmRemoteRel", 61), ether,
                          rx_.port(), inbox_, counts_)
        .detach();
  }

  [[nodiscard]] int port() const { return rx_.port(); }
  [[nodiscard]] std::uint64_t dispatched() const { return counts_.dispatched; }
  [[nodiscard]] std::uint64_t unknown_instructions() const {
    return counts_.unknown;
  }

 private:
  void deliver(const net::Packet& p) {
    auto ri = std::static_pointer_cast<const RemoteInstruction>(p.body);
    if (ri) inbox_->send(std::move(ri));
  }

  net::TcpLiteReceiver rx_;
  detail::Inbox* inbox_ = nullptr;  // in the dispatch task's frame
  detail::DispatchCounts counts_;
};

class ReliableRemoteVcmClient {
 public:
  ReliableRemoteVcmClient(sim::Engine& engine, hw::EthernetSwitch& ether,
                          sim::Time stack_cost, int dst_port,
                          net::TcpLiteSender::Params params =
                              net::TcpLiteSender::Params{.window = 8})
      : tx_{engine, ether, stack_cost, dst_port, params} {}

  void invoke(InstructionId id, std::uint64_t w0,
              std::shared_ptr<void> payload, std::uint32_t bulk_bytes = 0,
              std::uint64_t w1 = 0) {
    auto ri = std::make_shared<RemoteInstruction>();
    ri->id = id;
    ri->w0 = w0;
    ri->w1 = w1;
    ri->payload = std::move(payload);
    net::Packet p;
    p.seq = next_seq_++;
    p.bytes = RemoteVcmPort::kHeaderBytes + bulk_bytes;
    p.body = std::move(ri);
    tx_.send(std::move(p));
  }

  [[nodiscard]] net::TcpLiteSender& transport() { return tx_; }

 private:
  net::TcpLiteSender tx_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace nistream::dvcm
