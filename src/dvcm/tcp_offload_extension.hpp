// TCP-offload DVCM extension.
//
// Paper §5: "A number of efforts by industry include I2O cards for RAID
// storage sub-systems and off-loading TCP/IP protocol processing to the NI
// from the host." This extension is that offload as a DVCM instruction set:
// the host posts SEND instructions; the board's TcpLite engine handles
// segmentation, ACK processing and retransmission entirely on the NI — the
// host never sees a timer or a duplicate.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "dvcm/runtime.hpp"
#include "net/tcplite.hpp"

namespace nistream::dvcm {

inline constexpr InstructionId kTcpOpen = kExtensionBase + 0x300;
inline constexpr InstructionId kTcpSend = kExtensionBase + 0x301;
inline constexpr InstructionId kTcpStatus = kExtensionBase + 0x302;

/// Payload of kTcpSend (w0 = connection id).
struct TcpSendRequest {
  net::Packet packet{};
};

class TcpOffloadExtension final : public ExtensionModule {
 public:
  explicit TcpOffloadExtension(hw::EthernetSwitch& ether,
                               net::TcpLiteSender::Params params =
                                   net::TcpLiteSender::Params{.window = 8})
      : ether_{ether}, params_{params} {}

  [[nodiscard]] const char* name() const override { return "tcp-offload"; }

  void install(VcmRuntime& runtime) override {
    runtime_ = &runtime;
    // kTcpOpen: w0 = destination port; reply w0 = connection id.
    runtime.registry().add(kTcpOpen, [this](const hw::I2oMessage& m) {
      const auto cid = next_cid_++;
      connections_.emplace(
          cid, std::make_unique<net::TcpLiteSender>(
                   runtime_->board().engine(), ether_,
                   runtime_->board().ether().params().stack_traversal,
                   static_cast<int>(m.w0), params_));
      runtime_->reply(m, hw::I2oMessage{.w0 = cid});
    });
    // kTcpSend: fire-and-forget reliable send on connection w0.
    runtime.registry().add(kTcpSend, [this](const hw::I2oMessage& m) {
      const auto it = connections_.find(m.w0);
      if (it == connections_.end()) return;
      const auto req = std::static_pointer_cast<TcpSendRequest>(m.payload);
      it->second->send(req->packet);
    });
    // kTcpStatus: reply w0 = acked count, w1 = retransmissions.
    runtime.registry().add(kTcpStatus, [this](const hw::I2oMessage& m) {
      const auto it = connections_.find(m.w0);
      if (it == connections_.end()) {
        runtime_->reply(m, hw::I2oMessage{});
        return;
      }
      runtime_->reply(m, hw::I2oMessage{.w0 = it->second->acked(),
                                        .w1 = it->second->retransmissions()});
    });
  }

  [[nodiscard]] net::TcpLiteSender* connection(std::uint64_t cid) {
    const auto it = connections_.find(cid);
    return it == connections_.end() ? nullptr : it->second.get();
  }

 private:
  hw::EthernetSwitch& ether_;
  net::TcpLiteSender::Params params_;
  VcmRuntime* runtime_ = nullptr;
  std::unordered_map<std::uint64_t, std::unique_ptr<net::TcpLiteSender>>
      connections_;
  std::uint64_t next_cid_ = 1;
};

}  // namespace nistream::dvcm
