// Cluster scale-out: the paper's closing architecture vision, runnable.
//
// A 4-node media cluster, each node carrying two scheduler-NIs (i960 boards
// running the DVCM + DWCS extension), serves hundreds of concurrent stream
// requests. One cluster control plane runs the eight boards (board b is NI
// b % 2 of node b / 2) and places each request on the least-loaded board
// whose admission controller accepts it; requests beyond aggregate capacity
// are rejected up front instead of degrading everyone ("pre-negotiated bound
// on service degradation", §3.1).
#include <cstdio>
#include <deque>
#include <memory>
#include <vector>

#include "apps/client.hpp"
#include "cluster/control_plane.hpp"

using namespace nistream;
using sim::Time;

int main() {
  constexpr int kNodes = 4;
  constexpr int kNisPerNode = 2;
  sim::Engine engine;
  hostos::HostMachine host{engine, 1};
  hw::EthernetSwitch ether{engine};
  cluster::ClusterControlPlane plane{host, ether,
                                     {.boards = kNodes * kNisPerNode}};

  // 2000 clients request ~250 kbit/s streams; cluster capacity is ~8x230.
  const dwcs::StreamParams params{.tolerance = {2, 8},
                                  .period = Time::ms(33.333),
                                  .lossy = true};
  std::vector<std::unique_ptr<apps::MpegClient>> clients;
  std::deque<apps::ProducerStats> producers;
  int rejected = 0;
  for (int i = 0; i < 2000; ++i) {
    clients.push_back(std::make_unique<apps::MpegClient>(engine, ether));
    const auto g = plane.open_stream(params, 1000, clients.back()->port());
    if (!g) {
      ++rejected;
      continue;
    }
    // A paced synthetic producer feeds the stream's board locally (Path C).
    const auto where = plane.registry().record(*g).where;
    apps::NiSchedulerServer& ni = plane.ni(where.board);
    apps::spawn_synthetic_producer(
        ni, ni.kernel().spawn("tProd", 120), where.local,
        {.mean_frame_bytes = 1000,
         .n_frames = 150,
         .period = params.period,
         .seed = static_cast<std::uint64_t>(4000 + i)},
        producers.emplace_back());
  }

  engine.run_until(Time::sec(6));

  std::printf("requests: 2000, admitted: %zu, rejected: %d\n",
              producers.size(), rejected);
  for (int n = 0; n < kNodes; ++n) {
    const int first = n * kNisPerNode;  // the node's first board
    std::uint64_t streams = 0;
    for (int i = 0; i < kNisPerNode; ++i) {
      streams += plane.admission(first + i).admitted();
    }
    std::printf("  node%d: %llu streams (", n,
                static_cast<unsigned long long>(streams));
    for (int i = 0; i < kNisPerNode; ++i) {
      std::printf("%sNI%d cpu %.0f%%", i ? ", " : "", i,
                  100.0 * plane.admission(first + i).cpu_utilization());
    }
    std::printf(")\n");
  }

  std::uint64_t frames = 0, bytes = 0;
  for (auto& c : clients) {
    frames += c->total_frames();
    bytes += c->total_bytes();
  }
  std::printf("delivered: %llu frames, %.1f Mbit/s aggregate over %.0f s\n",
              static_cast<unsigned long long>(frames),
              static_cast<double>(bytes) * 8.0 / engine.now().to_sec() / 1e6,
              engine.now().to_sec());
  return 0;
}
