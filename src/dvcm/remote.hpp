// Remote DVCM invocation: the "Distributed" in DVCM.
//
// Paper §1: "for distributed implementations of media streams on the cluster
// server, traffic elimination also occurs for media streams entering the NI
// from the network linking it to other cluster nodes." A DVCM instance on
// one board can invoke instructions on another board across the cluster
// interconnect — a stream producer on node A feeds the DWCS extension on
// node B's scheduler-NI without either host touching a frame.
//
// ReliableRemoteVcmPort attaches to a runtime and runs each arriving
// instruction through the runtime's dispatch step, charging the NI CPU as
// the I2O path does (VcmRuntime::dispatch). ReliableRemoteVcmClient
// sends them as TcpLite payload bodies, so every instruction arrives exactly
// once and in order even on a degraded segment (see
// tests/dvcm/remote_test.cpp). The cluster control plane ships its
// checkpoints over this pair (cluster/wire.hpp).
//
// Teardown follows the net layer's: TcpLite endpoints detach their switch
// ports when destroyed, and the port's dispatch task checks its port after
// every wait, so a port may be destroyed even mid-dispatch.
#pragma once

#include <cstdint>
#include <memory>

#include "dvcm/runtime.hpp"
#include "hw/ethernet.hpp"
#include "net/tcplite.hpp"
#include "sim/coro.hpp"

namespace nistream::dvcm {

/// An instruction in flight between two boards. On the interconnect it is
/// kRemoteHeaderBytes plus any bulk data that would travel with it;
/// `payload` is the simulation's zero-copy stand-in for that bulk.
struct RemoteInstruction {
  InstructionId id = 0;
  std::uint64_t w0 = 0;
  std::uint64_t w1 = 0;
  std::shared_ptr<void> payload;
};

/// Instruction header on the wire: instruction id, w0 and w1.
inline constexpr std::uint32_t kRemoteHeaderBytes = 24;

/// The receiving end: a TcpLite receiver feeding the dispatch task.
class ReliableRemoteVcmPort {
 public:
  ReliableRemoteVcmPort(VcmRuntime& runtime, hw::EthernetSwitch& ether,
                        sim::Time stack_cost)
      : rx_{runtime.board().engine(), ether, stack_cost,
            [this](const net::Packet& p, sim::Time) { deliver(p); }} {
    serve(runtime, runtime.kernel().spawn("tVcmRemoteRel", 61), ether)
        .detach();
  }

  [[nodiscard]] int port() const { return rx_.port(); }
  [[nodiscard]] std::uint64_t dispatched() const { return dispatched_; }
  [[nodiscard]] std::uint64_t unknown_instructions() const { return unknown_; }

 private:
  using Inbox = sim::Mailbox<std::shared_ptr<const RemoteInstruction>>;

  /// The network-dispatch task, peer of the runtime's I2O task. The inbox
  /// lives in this frame (`inbox_` points at it from the start) and the
  /// port is held by switch address, so after every wait the task checks
  /// the port is attached before touching this object, as
  /// net::detail::schedule_while_attached does for events.
  sim::Coro serve(VcmRuntime& runtime, rtos::Task& task,
                  hw::EthernetSwitch& ether) {
    const int port = rx_.port();
    Inbox box{ether.engine()};
    inbox_ = &box;
    for (;;) {
      const auto ri = co_await box.receive();
      if (!ether.attached(port)) co_return;
      const VcmRuntime::Dispatched d = runtime.dispatch(
          {.function = ri->id, .w0 = ri->w0, .w1 = ri->w1,
           .payload = ri->payload});
      co_await task.consume_cycles(d.cycles);
      if (!ether.attached(port)) co_return;
      ++(d.known ? dispatched_ : unknown_);
    }
  }

  void deliver(const net::Packet& p) {
    auto ri = std::static_pointer_cast<const RemoteInstruction>(p.body);
    if (ri) inbox_->send(std::move(ri));
  }

  net::TcpLiteReceiver rx_;
  Inbox* inbox_ = nullptr;  // in the dispatch task's frame
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
    p.bytes = kRemoteHeaderBytes + bulk_bytes;
    p.body = std::move(ri);
    tx_.send(std::move(p));
  }

  [[nodiscard]] net::TcpLiteSender& transport() { return tx_; }

 private:
  net::TcpLiteSender tx_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace nistream::dvcm
