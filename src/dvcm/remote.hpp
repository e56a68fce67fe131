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
// they touch the endpoint.
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

class RemoteVcmPort {
 public:
  static constexpr std::uint32_t kHeaderBytes = 24;

  RemoteVcmPort(VcmRuntime& runtime, hw::EthernetSwitch& ether,
                sim::Time stack_cost)
      : runtime_{runtime}, engine_{runtime.board().engine()}, ether_{ether},
        stack_cost_{stack_cost}, inbox_{engine_} {
    port_ = ether.add_port([this](const hw::EthFrame& f) { on_frame(f); });
    // Network-dispatch task: peer of the I2O dispatch task.
    rtos::Task& task = runtime.kernel().spawn("tVcmRemote", 61);
    [](RemoteVcmPort& self, rtos::Task& t) -> sim::Coro {
      for (;;) {
        const auto ri = co_await self.inbox_.receive();
        const std::int64_t before = self.runtime_.board().cpu().cycles();
        hw::I2oMessage msg;
        msg.function = ri->id;
        msg.w0 = ri->w0;
        msg.w1 = ri->w1;
        msg.payload = ri->payload;
        const bool known = self.runtime_.registry().dispatch(msg);
        const std::int64_t handler =
            self.runtime_.board().cpu().cycles() - before;
        co_await t.consume_cycles(VcmRuntime::kDispatchCycles + handler);
        if (known) {
          ++self.dispatched_;
        } else {
          ++self.unknown_;
        }
      }
    }(*this, task)
        .detach();
  }

  RemoteVcmPort(const RemoteVcmPort&) = delete;
  RemoteVcmPort& operator=(const RemoteVcmPort&) = delete;
  /// Its dispatch task waits on the inbox, which no event reaches once the
  /// port is detached; destroy the port while that task is idle.
  ~RemoteVcmPort() { ether_.detach(port_); }

  [[nodiscard]] int port() const { return port_; }
  [[nodiscard]] std::uint64_t dispatched() const { return dispatched_; }
  [[nodiscard]] std::uint64_t unknown_instructions() const { return unknown_; }

 private:
  void on_frame(const hw::EthFrame& f) {
    auto ri = std::static_pointer_cast<const RemoteInstruction>(f.payload);
    if (!ri) return;
    net::detail::schedule_while_attached(engine_, ether_, port_, stack_cost_,
                                         [this, ri] { inbox_.send(ri); });
  }

  VcmRuntime& runtime_;
  sim::Engine& engine_;
  hw::EthernetSwitch& ether_;
  sim::Time stack_cost_;
  sim::Mailbox<std::shared_ptr<const RemoteInstruction>> inbox_;
  int port_ = -1;
  std::uint64_t dispatched_ = 0;
  std::uint64_t unknown_ = 0;
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
      : runtime_{runtime},
        rx_{runtime.board().engine(), ether, stack_cost,
            [this](const net::Packet& p, sim::Time) { deliver(p); }},
        inbox_{runtime.board().engine()} {
    rtos::Task& task = runtime.kernel().spawn("tVcmRemoteRel", 61);
    [](ReliableRemoteVcmPort& self, rtos::Task& t) -> sim::Coro {
      for (;;) {
        const auto ri = co_await self.inbox_.receive();
        const std::int64_t before = self.runtime_.board().cpu().cycles();
        hw::I2oMessage msg;
        msg.function = ri->id;
        msg.w0 = ri->w0;
        msg.w1 = ri->w1;
        msg.payload = ri->payload;
        const bool known = self.runtime_.registry().dispatch(msg);
        const std::int64_t handler =
            self.runtime_.board().cpu().cycles() - before;
        co_await t.consume_cycles(VcmRuntime::kDispatchCycles + handler);
        if (known) {
          ++self.dispatched_;
        } else {
          ++self.unknown_;
        }
      }
    }(*this, task)
        .detach();
  }

  [[nodiscard]] int port() const { return rx_.port(); }
  [[nodiscard]] std::uint64_t dispatched() const { return dispatched_; }
  [[nodiscard]] std::uint64_t unknown_instructions() const { return unknown_; }

 private:
  void deliver(const net::Packet& p) {
    auto ri = std::static_pointer_cast<RemoteInstruction>(p.body);
    if (ri) inbox_.send(std::move(ri));
  }

  VcmRuntime& runtime_;
  net::TcpLiteReceiver rx_;
  sim::Mailbox<std::shared_ptr<RemoteInstruction>> inbox_;
  std::uint64_t dispatched_ = 0;
  std::uint64_t unknown_ = 0;
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
