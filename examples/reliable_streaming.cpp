// Reliable streaming over a degraded segment.
//
// The cluster interconnect is normally a clean switched LAN, but WAN-facing
// or congested segments drop frames. This example streams the same clip over
// a 12%-lossy segment two ways:
//   * plain board-resident UDP  — losses reach the player;
//   * the TCP-offload extension — the NI retransmits, the player sees a
//     gapless sequence, and the host posted nothing but SEND instructions.
#include <cstdio>
#include <set>

#include "apps/media_server.hpp"
#include "dvcm/tcp_offload_extension.hpp"
#include "fault/injector.hpp"
#include "mpeg/encoder.hpp"
#include "net/tcplite.hpp"
#include "net/udp.hpp"

using namespace nistream;
using sim::Time;

int main() {
  hw::Calibration cal;
  fault::LinkFaultInjector loss{{.frame_loss_rate = 0.12}, sim::Rng{4242}};

  sim::Engine eng;
  hw::PciBus bus{eng};
  hw::EthernetSwitch ether{eng, cal.ethernet};
  ether.set_fault(&loss);
  apps::NiSchedulerServer server{eng, bus, ether,
                                 dvcm::StreamService::Config{}, cal};
  auto tcp_ext = std::make_unique<dvcm::TcpOffloadExtension>(ether);
  server.runtime().load_extension(std::move(tcp_ext));

  const mpeg::MpegFile clip = mpeg::SyntheticEncoder{{.seed = 5}}.generate(200);

  // --- Plain UDP pass.
  std::set<std::uint64_t> udp_got;
  net::UdpEndpoint udp_rx{eng, ether, Time::us(100),
                          [&](const net::Packet& p, Time) {
                            udp_got.insert(p.seq);
                          }};
  net::UdpEndpoint udp_tx{eng, ether, cal.ethernet.stack_traversal,
                          net::UdpEndpoint::Receiver{}};
  // --- TCP-offload pass.
  std::vector<std::uint64_t> tcp_got;
  net::TcpLiteReceiver tcp_rx{eng, ether, Time::us(100),
                              [&](const net::Packet& p, Time) {
                                tcp_got.push_back(p.seq);
                              }};

  auto host_app = [&]() -> sim::Coro {
    // UDP: fire the clip, frame per frame.
    for (std::uint64_t i = 0; i < clip.frames.size(); ++i) {
      udp_tx.send(udp_rx.port(),
                  net::Packet{.seq = i, .bytes = clip.frames[i].bytes});
      co_await sim::Delay{eng, Time::ms(5)};
    }
    // TCP offload: open a connection via DVCM and post SENDs.
    hw::I2oMessage reply;
    co_await server.host_api().call(
        dvcm::kTcpOpen, &reply, static_cast<std::uint64_t>(tcp_rx.port()));
    const auto cid = reply.w0;
    for (std::uint64_t i = 0; i < clip.frames.size(); ++i) {
      auto req = std::make_shared<dvcm::TcpSendRequest>();
      req->packet = net::Packet{.seq = i, .bytes = clip.frames[i].bytes};
      co_await server.host_api().invoke(dvcm::kTcpSend, cid, req);
      co_await sim::Delay{eng, Time::ms(5)};
    }
    co_await sim::Delay{eng, Time::sec(2)};
    co_await server.host_api().call(dvcm::kTcpStatus, &reply, cid);
    std::printf("NI-side retransmissions: %llu (host posted none)\n",
                static_cast<unsigned long long>(reply.w1));
  };
  host_app().detach();
  eng.run_until(Time::sec(20));

  std::printf("link loss rate: %.0f%% (%llu frames eaten by the switch)\n",
              loss.policy().frame_loss_rate * 100,
              static_cast<unsigned long long>(ether.frames_lost()));
  std::printf("plain UDP:    %zu of %zu frames reached the player (gaps!)\n",
              udp_got.size(), clip.frames.size());
  bool in_order = true;
  for (std::size_t i = 0; i < tcp_got.size(); ++i) {
    in_order = in_order && tcp_got[i] == i;
  }
  std::printf("TCP offload:  %zu of %zu frames, %s\n", tcp_got.size(),
              clip.frames.size(),
              in_order && tcp_got.size() == clip.frames.size()
                  ? "gapless and in order"
                  : "DEGRADED");
  return 0;
}
