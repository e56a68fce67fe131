// Raw scripted RTSP control channel for session-plane tests: fire requests,
// collect parsed responses. Unlike session::RtspChurnClient it makes no
// protocol decisions, so a test can send exactly the (possibly wrong) thing.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hw/ethernet.hpp"
#include "net/tcplite.hpp"
#include "net/udp.hpp"
#include "session/rtsp.hpp"
#include "sim/engine.hpp"

namespace nistream::test {

struct Ctl {
  net::TcpLiteReceiver rx;
  net::TcpLiteSender tx;
  session::MessageBuffer buf;
  std::vector<session::RtspResponse> got;

  Ctl(sim::Engine& eng, hw::EthernetSwitch& ether, int control_port)
      : rx{eng, ether, net::kHostStackCost,
           net::TcpLiteReceiver::DeliverFrom{
               [this](const net::Packet& p, int, sim::Time) {
                 if (const auto* chunk =
                         static_cast<const std::string*>(p.body.get())) {
                   buf.append(*chunk);
                 }
                 while (auto msg = buf.next()) {
                   if (auto r = session::parse_response(*msg)) {
                     got.push_back(*r);
                   }
                 }
               }}},
        tx{eng, ether, net::kHostStackCost, control_port} {}

  void send(session::RtspRequest req) {
    req.reply_port = rx.port();
    auto body = std::make_shared<std::string>(session::format_request(req));
    net::Packet pkt;
    pkt.bytes = static_cast<std::uint32_t>(body->size());
    pkt.body = std::move(body);
    tx.send(pkt);
  }
};

}  // namespace nistream::test
