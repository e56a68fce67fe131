// Scalable server architectures: multi-NI nodes and clustered servers.
//
// The paper's abstract: "Architectures to build scalable media scheduling
// servers are explored by distributing media schedulers and media stream
// producers among NIs within a server and clustering a number of such
// servers using commodity hardware and software." This module is that
// exploration made concrete:
//
// * ServerNode — one chassis: a PCI segment carrying several scheduler-NIs
//   (each an i960 board running the DVCM + DWCS extension with its own
//   admission controller). Stream placement is least-loaded-first across
//   the node's NIs; each admitted stream gets a paced synthetic producer
//   feeding the chosen NI locally (Path C).
// * MediaCluster — several nodes behind the switch, with a director that
//   places each request on the least-loaded node that can admit it and
//   counts cluster-wide rejections.
//
// §6's capacity caveat is enforced per NI by dwcs::AdmissionController:
// "Scalability for a large number of streams may require careful
// construction" — the bench/ablate_cluster bench sweeps exactly that.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/media_server.hpp"
#include "apps/producer.hpp"
#include "cluster/placement.hpp"
#include "dwcs/admission.hpp"
#include "mpeg/frame.hpp"
#include "sim/coro.hpp"
#include "sim/random.hpp"

namespace nistream::apps {

/// An open stream: where it landed and how to account for it.
struct StreamPlacement {
  int node = -1;
  int ni = -1;
  dwcs::StreamId stream = dwcs::kInvalidStream;
};

class ServerNode {
 public:
  /// Per-frame NI CPU cost used for admission. The Table 2 operating point
  /// is ~95 us, but with hundreds of streams the heaps deepen and late-drop
  /// processing adds decisions, so admission budgets conservatively —
  /// §6's "careful construction": admitting to the microbenchmark number
  /// saturates the NI CPU and collapses delivery (see bench/ablate_cluster).
  static constexpr sim::Time kPerFrameCpu = sim::Time::us(130);

  ServerNode(std::string name, sim::Engine& engine, hw::EthernetSwitch& ether,
             int scheduler_nis, const hw::Calibration& cal = {},
             dvcm::StreamService::Config service_config = {})
      : name_{std::move(name)}, engine_{engine}, cal_{cal} {
    bus_ = std::make_unique<hw::PciBus>(engine, cal.pci);
    for (int i = 0; i < scheduler_nis; ++i) {
      nis_.push_back(std::make_unique<SchedulerNi>(
          engine, *bus_, ether, cal, service_config));
    }
  }

  ServerNode(const ServerNode&) = delete;
  ServerNode& operator=(const ServerNode&) = delete;

  /// Place a stream on the least-loaded NI that admits it; spawns a paced
  /// producer for `n_frames` synthetic frames. Returns nullopt when every
  /// NI's admission controller refuses.
  std::optional<StreamPlacement> open_stream(
      const dwcs::StreamParams& params, std::uint32_t mean_frame_bytes,
      int client_port, int n_frames, std::uint64_t seed) {
    const dwcs::AdmissionController::Request req{
        .tolerance = params.tolerance,
        .period = params.period,
        .mean_frame_bytes = mean_frame_bytes};
    const int best = cluster::pick_least_loaded(
        static_cast<int>(nis_.size()),
        [this](int i) { return total_load(*nis_[static_cast<std::size_t>(i)]); },
        [this, &req](int i) {
          return nis_[static_cast<std::size_t>(i)]->admission->would_admit(req);
        });
    if (best < 0) {
      ++rejected_;
      return std::nullopt;
    }
    SchedulerNi& ni = *nis_[static_cast<std::size_t>(best)];
    ni.admission->admit(req);
    const auto id =
        ni.server->service().create_stream(params, client_port);
    spawn_producer(ni, id, params, mean_frame_bytes, n_frames, seed);
    ++opened_;
    return StreamPlacement{.node = 0, .ni = best, .stream = id};
  }

  [[nodiscard]] int ni_count() const { return static_cast<int>(nis_.size()); }
  [[nodiscard]] const dwcs::AdmissionController& admission(int i) const {
    return *nis_[static_cast<std::size_t>(i)]->admission;
  }
  [[nodiscard]] std::uint64_t streams_opened() const { return opened_; }
  [[nodiscard]] std::uint64_t streams_rejected() const { return rejected_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Aggregate fraction of node capacity in use (mean over NIs of the
  /// binding resource). A node with no scheduler-NIs has no capacity at
  /// all: it reports fully loaded, so placement never prefers it.
  [[nodiscard]] double load() const {
    if (nis_.empty()) return 1.0;
    double sum = 0;
    for (const auto& ni : nis_) sum += total_load(*ni);
    return sum / static_cast<double>(nis_.size());
  }

 private:
  struct SchedulerNi {
    std::unique_ptr<NiSchedulerServer> server;
    std::unique_ptr<dwcs::AdmissionController> admission;
    int producer_tasks = 0;
    // One stats block per spawned producer (stable addresses: the pumps
    // hold references for the life of the run).
    std::vector<std::unique_ptr<ProducerStats>> producer_stats;

    SchedulerNi(sim::Engine& engine, hw::PciBus& bus,
                hw::EthernetSwitch& ether, const hw::Calibration& cal,
                const dvcm::StreamService::Config& cfg) {
      server = std::make_unique<NiSchedulerServer>(engine, bus, ether, cfg, cal);
      admission = std::make_unique<dwcs::AdmissionController>(
          cal.ethernet.bits_per_sec / 8.0, ServerNode::kPerFrameCpu);
    }
  };

  [[nodiscard]] static double total_load(const SchedulerNi& ni) {
    return std::max(ni.admission->link_utilization(),
                    ni.admission->cpu_utilization());
  }

  void spawn_producer(SchedulerNi& ni, dwcs::StreamId id,
                      const dwcs::StreamParams& params,
                      std::uint32_t mean_frame_bytes, int n_frames,
                      std::uint64_t seed) {
    // A paced synthetic producer (Segment -> Enqueue): frame sizes jitter
    // around the mean, one frame per period, fed to the chosen NI locally.
    rtos::Task& task = ni.server->kernel().spawn(
        "tProd" + std::to_string(ni.producer_tasks++), 120);
    ni.producer_stats.push_back(std::make_unique<ProducerStats>());
    spawn_synthetic_producer(
        *ni.server, task, id,
        SyntheticStreamSpec{.mean_frame_bytes = mean_frame_bytes,
                            .n_frames = n_frames,
                            .period = params.period,
                            .seed = seed},
        *ni.producer_stats.back());
  }

  std::string name_;
  sim::Engine& engine_;
  hw::Calibration cal_;
  std::unique_ptr<hw::PciBus> bus_;
  std::vector<std::unique_ptr<SchedulerNi>> nis_;
  std::uint64_t opened_ = 0;
  std::uint64_t rejected_ = 0;
};

/// A cluster of ServerNodes behind one switch, with least-loaded placement.
class MediaCluster {
 public:
  MediaCluster(sim::Engine& engine, hw::EthernetSwitch& ether, int nodes,
               int nis_per_node, const hw::Calibration& cal = {},
               dvcm::StreamService::Config service_config = {})
      : MediaCluster{engine, ether,
                     std::vector<int>(static_cast<std::size_t>(nodes),
                                      nis_per_node),
                     cal, service_config} {}

  /// Heterogeneous cluster: nis_per_node[n] scheduler-NIs in node n (0 is
  /// legal — a director-only or storage node that can never host a stream).
  MediaCluster(sim::Engine& engine, hw::EthernetSwitch& ether,
               const std::vector<int>& nis_per_node,
               const hw::Calibration& cal = {},
               dvcm::StreamService::Config service_config = {}) {
    for (std::size_t n = 0; n < nis_per_node.size(); ++n) {
      nodes_.push_back(std::make_unique<ServerNode>(
          "node" + std::to_string(n), engine, ether, nis_per_node[n], cal,
          service_config));
    }
  }

  std::optional<StreamPlacement> open_stream(const dwcs::StreamParams& params,
                                             std::uint32_t mean_frame_bytes,
                                             int client_port, int n_frames,
                                             std::uint64_t seed) {
    // Least-loaded node first; fall through on admission failure.
    const auto order = cluster::load_order(
        static_cast<int>(nodes_.size()),
        [this](int i) { return nodes_[static_cast<std::size_t>(i)]->load(); });
    for (const int n : order) {
      auto placed = nodes_[static_cast<std::size_t>(n)]->open_stream(
          params, mean_frame_bytes, client_port, n_frames, seed);
      if (placed) {
        placed->node = n;
        return placed;
      }
    }
    ++rejected_;
    return std::nullopt;
  }

  [[nodiscard]] int node_count() const { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] ServerNode& node(int i) { return *nodes_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] std::uint64_t rejected() const { return rejected_; }
  [[nodiscard]] std::uint64_t opened() const {
    std::uint64_t sum = 0;
    for (const auto& n : nodes_) sum += n->streams_opened();
    return sum;
  }

 private:
  std::vector<std::unique_ptr<ServerNode>> nodes_;
  std::uint64_t rejected_ = 0;
};

}  // namespace nistream::apps
