// The two media-server organizations the paper compares.
//
// * HostSchedulerServer — DWCS runs as a Solaris process on the host CPU
//   (optionally pbind-bound), dispatching through a plain (82557-style) NIC.
//   Frames traverse the host: this is Path A of Figure 3 and the setup of
//   Figures 6-8.
// * NiSchedulerServer — DWCS runs inside the DVCM DWCS extension on an
//   i960 RD board under VxWorks; the host (or a peer NI) only produces
//   frames. This is Paths B/C and the setup of Figures 9-10.
#pragma once

#include <algorithm>
#include <memory>

#include "apps/producer.hpp"
#include "dvcm/dwcs_extension.hpp"
#include "dvcm/host_api.hpp"
#include "dvcm/runtime.hpp"
#include "dvcm/stream_service.hpp"
#include "hostos/host.hpp"
#include "hw/nic_board.hpp"
#include "net/udp.hpp"
#include "rtos/wind.hpp"
#include "sim/random.hpp"

namespace nistream::apps {

class HostSchedulerServer {
 public:
  /// `affinity` >= 0 binds the scheduler process to that CPU (Solaris pbind,
  /// as the paper does).
  HostSchedulerServer(hostos::HostMachine& host, hw::EthernetSwitch& ether,
                      dvcm::StreamService::Config config = {},
                      const hw::Calibration& cal = {}, int affinity = -1)
      : service_{host.engine(), config, host.cpu_model(), cal.host_int,
                 cal.host_fpu, /*memory=*/nullptr},
        endpoint_{host.engine(), ether, net::kHostStackCost,
                  net::UdpEndpoint::Receiver{}},
        proc_{host.spawn("dwcs-sched", hostos::kDefaultPriority, affinity)} {
    service_.run(proc_, endpoint_).detach();
  }

  [[nodiscard]] dvcm::StreamService& service() { return service_; }
  [[nodiscard]] net::UdpEndpoint& endpoint() { return endpoint_; }
  [[nodiscard]] hostos::Process& process() { return proc_; }

 private:
  dvcm::StreamService service_;
  net::UdpEndpoint endpoint_;
  hostos::Process& proc_;
};

class NiSchedulerServer {
 public:
  NiSchedulerServer(sim::Engine& engine, hw::PciBus& bus,
                    hw::EthernetSwitch& ether,
                    dvcm::StreamService::Config config = {},
                    const hw::Calibration& cal = {})
      : board_{"scheduler-ni", engine, bus, ether,
               [](const hw::EthFrame&) {}, cal},
        kernel_{engine, board_.cpu(), cal.rtos, cal.interconnect.cores},
        runtime_{board_, kernel_},
        host_api_{engine, board_.i2o()} {
    // A hierarchical scheduler on a multi-core board inherits the board's
    // interconnect hop cost unless the config already set one — the
    // calibration is the single source of hardware constants.
    if (config.scheduler.repr == dwcs::ReprKind::kHierarchical &&
        config.scheduler.hierarchical.hop_cycles == 0) {
      config.scheduler.hierarchical.hop_cycles =
          cal.interconnect.core_hop_cycles;
    }
    auto ext = std::make_unique<dvcm::DwcsExtension>(config, ether, cal);
    extension_ = ext.get();
    runtime_.start();
    runtime_.load_extension(std::move(ext));
  }

  [[nodiscard]] hw::NicBoard& board() { return board_; }
  [[nodiscard]] rtos::WindKernel& kernel() { return kernel_; }
  [[nodiscard]] dvcm::VcmRuntime& runtime() { return runtime_; }
  [[nodiscard]] dvcm::VcmHostApi& host_api() { return host_api_; }
  [[nodiscard]] dvcm::DwcsExtension& extension() { return *extension_; }
  [[nodiscard]] dvcm::StreamService& service() { return extension_->service(); }

  /// Gate this server on a board-health state machine: the board stops
  /// fetching I2O messages and the stream service stalls/rejects while the
  /// health object says the board is down or hung.
  void attach_health(fault::BoardHealth& h) {
    board_.set_health(&h);
    service().set_health(&h);
  }

 private:
  hw::NicBoard board_;
  rtos::WindKernel kernel_;
  dvcm::VcmRuntime runtime_;
  dvcm::VcmHostApi host_api_;
  dvcm::DwcsExtension* extension_;
};

// ---------------------------------------------------------------------------
// Producer wiring helpers.
// ---------------------------------------------------------------------------

/// A synthetic stream's shape: jittered frame sizes around a mean, the
/// broadcast 12-frame GOP cadence (one I per 12), one frame per period.
struct SyntheticStreamSpec {
  std::uint32_t mean_frame_bytes = 1000;
  int n_frames = 0;
  sim::Time period = sim::Time::ms(33);
  std::uint64_t seed = 1;
};

/// Frame source drawing the spec's jittered sizes (sizes vary ~N(mean,
/// 0.15*mean), floored at 128 bytes — the cluster load generators' model).
inline path::FrameSource synthetic_stream_source(dwcs::StreamId stream,
                                                 const SyntheticStreamSpec& spec) {
  return [stream, spec, rng = sim::Rng{spec.seed}](
             std::uint64_t seq, path::StagedFrame& f) mutable {
    if (seq >= static_cast<std::uint64_t>(spec.n_frames)) return false;
    f.stream = stream;
    f.bytes = static_cast<std::uint32_t>(std::max(
        128.0, rng.normal(spec.mean_frame_bytes,
                          spec.mean_frame_bytes * 0.15)));
    f.type = seq % 12 == 0 ? mpeg::FrameType::kI : mpeg::FrameType::kP;
    f.provenance = path::Provenance::kSynthetic;
    return true;
  };
}

/// Spawn a paced synthetic producer (Segment -> Enqueue) feeding `stream`
/// on `server`'s ring from wind task `task` — the per-stream load generator
/// the cluster benches spawn on each admitted stream's board. The pump
/// detaches; `stats` must outlive the run.
inline void spawn_synthetic_producer(NiSchedulerServer& server,
                                     rtos::Task& task, dwcs::StreamId stream,
                                     const SyntheticStreamSpec& spec,
                                     ProducerStats& stats) {
  sim::Engine& engine = server.board().engine();
  detail::pump_owned(
      path::synthetic_producer_path(engine, task, server.service()),
      synthetic_stream_source(stream, spec),
      path::Pacing{.burst_frames = 0, .gap = spec.period,
                   .where = path::Pacing::Where::kAfterFrame},
      stats)
      .detach();
}

}  // namespace nistream::apps
