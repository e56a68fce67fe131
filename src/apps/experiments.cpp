#include "apps/experiments.hpp"

#include <algorithm>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/client.hpp"
#include "apps/media_server.hpp"
#include "apps/producer.hpp"
#include "apps/webload.hpp"
#include "dvcm/stream_service.hpp"
#include "dwcs/hw_cost_hook.hpp"
#include "dwcs/scheduler.hpp"
#include "hostos/filesystem.hpp"
#include "hostos/host.hpp"
#include "hw/nic_board.hpp"
#include "mpeg/encoder.hpp"
#include "mpeg/segmenter.hpp"
#include "path/paths.hpp"
#include "sim/coro.hpp"
#include "sim/engine.hpp"

namespace nistream::apps {
namespace {

/// Frame-size model for the load experiments: ~1000-byte frames at 30 fps
/// per stream (≈250 kbit/s), matching the settling bandwidths of
/// Figures 7/9 and the 1000-byte frames of Table 4.
mpeg::EncoderParams small_frame_params(std::uint64_t seed) {
  mpeg::EncoderParams p;
  p.mean_i_bytes = 2200;
  p.mean_p_bytes = 1100;
  p.mean_b_bytes = 600;
  p.size_sigma = 0.2;
  p.min_frame_bytes = 128;
  p.seed = seed;
  return p;
}

double settle_bandwidth(const sim::TimeSeries& bw, sim::Time horizon) {
  // Mean over the middle-to-late run, skipping the tail where producers may
  // have drained.
  return bw.mean_between(sim::Time::sec(horizon.to_sec() * 0.5),
                         sim::Time::sec(horizon.to_sec() * 0.9));
}

}  // namespace

// ---------------------------------------------------------------------------
// Tables 1-3.
// ---------------------------------------------------------------------------

MicrobenchResult run_microbench(const MicrobenchConfig& config) {
  // Paper methodology (§4.2): "we start the scheduler after all frame
  // descriptors have been written into the circular buffer", then time the
  // scheduling + dispatch of every frame; the "w/o Scheduler" variant
  // re-routes execution to where the frame address is already available.
  hw::CpuModel cpu{config.cpu};
  cpu.dcache().set_enabled(config.dcache_enabled);
  dwcs::CpuModelCostHook hook{cpu, config.cal.ni_int,
                              config.arith == dwcs::ArithMode::kNativeFloat
                                  ? config.cal.host_fpu
                                  : config.cal.ni_softfp};

  dwcs::DwcsScheduler::Config scfg;
  scfg.arith = config.arith;
  scfg.repr = config.repr;
  scfg.residency = config.residency;
  scfg.ring_capacity =
      static_cast<std::size_t>(config.n_frames / config.n_streams + 2);
  if (config.decision_overhead_cycles >= 0) {
    scfg.decision_overhead_cycles = config.decision_overhead_cycles;
  }
  dwcs::DwcsScheduler sched{scfg, hook};

  // Segment a synthetic MPEG file; spread frames across the streams in
  // round-robin order, all with the same period (the streams are peers, so
  // deadline ties are the common case — as in the paper's testbed).
  mpeg::SyntheticEncoder enc{small_frame_params(42)};
  const mpeg::MpegFile file = enc.generate(config.n_frames);
  const sim::Time period = sim::Time::ms(33);

  std::vector<dwcs::StreamId> ids;
  for (int i = 0; i < config.n_streams; ++i) {
    ids.push_back(sched.create_stream(
        {.tolerance = {1, 4}, .period = period, .lossy = true},
        sim::Time::zero()));
  }
  for (int i = 0; i < config.n_frames; ++i) {
    const auto& fr = file.frames[static_cast<std::size_t>(i)];
    dwcs::FrameDescriptor d;
    d.frame_id = static_cast<std::uint64_t>(i);
    d.bytes = fr.bytes;
    d.type = fr.type;
    d.enqueued_at = sim::Time::zero();
    const bool ok =
        sched.enqueue(ids[static_cast<std::size_t>(i) % ids.size()], d,
                      sim::Time::zero());
    (void)ok;
  }

  // --- With the scheduler: drive time along the deadline grid so every
  // frame is serviced on time (the microbench streams at the requested
  // rate; nothing is dropped).
  cpu.reset();
  cpu.dcache().invalidate();
  // Driver + NIC doorbell path, as the stream service charges it.
  const std::int64_t dispatch_cycles =
      dvcm::StreamService::Config{}.dispatch_cycles;
  int scheduled = 0;
  sim::Time now = sim::Time::zero();
  while (scheduled < config.n_frames) {
    const auto next = sched.earliest_backlog_deadline();
    if (next && *next > now) now = *next;
    if (sched.schedule_next(now).has_value()) {
      cpu.charge(dispatch_cycles);
      ++scheduled;
    }
  }
  const double total_sched_us = cpu.elapsed().to_us();

  // --- Without the scheduler: FCFS straight out of a circular buffer — the
  // descriptor address is simply popped and the frame dispatched.
  hw::CpuModel cpu2{config.cpu};
  cpu2.dcache().set_enabled(config.dcache_enabled);
  dwcs::CpuModelCostHook hook2{cpu2, config.cal.ni_int, config.cal.ni_softfp};
  dwcs::RingTable fcfs{static_cast<std::size_t>(config.n_frames),
                       config.residency, /*base=*/0x0200'0000,
                       /*stride=*/0x10000, hook2};
  const std::size_t ring = fcfs.add();
  for (int i = 0; i < config.n_frames; ++i) {
    const auto& fr = file.frames[static_cast<std::size_t>(i)];
    fcfs.push(ring, dwcs::FrameDescriptor{
        .frame_id = static_cast<std::uint64_t>(i), .bytes = fr.bytes,
        .type = fr.type, .enqueued_at = sim::Time::zero()});
  }
  cpu2.reset();
  cpu2.dcache().invalidate();
  while (fcfs.front(ring).has_value()) {
    fcfs.pop(ring);
    cpu2.charge(dispatch_cycles);
  }
  const double total_wo_us = cpu2.elapsed().to_us();

  MicrobenchResult r;
  r.total_sched_us = total_sched_us;
  r.avg_frame_sched_us = total_sched_us / config.n_frames;
  r.total_wo_sched_us = total_wo_us;
  r.avg_frame_wo_sched_us = total_wo_us / config.n_frames;
  return r;
}

// ---------------------------------------------------------------------------
// Table 4.
// ---------------------------------------------------------------------------

namespace {

/// Table 4 methodology (§4.2.2): `n` scattered 1000-byte frames, one in
/// flight at a time — a 3 ms gap after every frame.
path::FrameSource table4_source(int n_transfers, std::uint64_t stride,
                                path::Provenance provenance) {
  return path::fixed_frame_source(
      static_cast<std::uint64_t>(n_transfers), mpeg::kPaperFrameBytes,
      [stride](std::uint64_t seq) { return seq * stride; },
      /*stream=*/0, provenance);
}

constexpr path::Pacing kTable4Pacing{
    .burst_frames = 0, .gap = sim::Time::ms(3),
    .where = path::Pacing::Where::kAfterFrame};

std::vector<StageLatency> stage_breakdown(const path::PathStats& stats) {
  std::vector<StageLatency> out;
  out.reserve(stats.stages.size());
  for (const auto& s : stats.stages) out.push_back({s.name, s.ms.mean()});
  return out;
}

}  // namespace

CriticalPathResult run_critical_path(int n_transfers,
                                     const hw::Calibration& cal) {
  CriticalPathResult result;

  // --- Experiment II (Path C): NI-attached disk -> NI CPU -> network.
  {
    sim::Engine eng;
    hw::PciBus bus{eng, cal.pci};
    hw::EthernetSwitch ether{eng, cal.ethernet};
    hw::ScsiDisk disk{eng, cal.disk, 77};
    MpegClient client{eng, ether, cal.ethernet.stack_traversal};
    net::UdpEndpoint ni_ep{eng, ether, cal.ethernet.stack_traversal,
                           net::UdpEndpoint::Receiver{}};
    // Scattered frame layout (the paper measures the random-access cost of
    // 4.2 ms per frame).
    auto p = path::critical_path_c(eng, disk, ni_ep, client.port());
    path::PathStats stats;
    path::pump(p, table4_source(n_transfers, 10'000'000,
                                path::Provenance::kNiDisk),
               kTable4Pacing, stats)
        .detach();
    eng.run();
    result.expt2_ms = client.latency_ms().mean() /* excludes the pacing gap:
        latency is measured per frame from read start to delivery */;
    result.expt2_stages = stage_breakdown(stats);
  }

  // --- Experiment III (Path B): disk on one NI -> PCI p2p DMA -> scheduler
  // NI -> network. The path's stage stamps reproduce the paper's
  // "4.2disk+1.2net+0.015pci" decomposition.
  {
    sim::Engine eng;
    hw::PciBus bus{eng, cal.pci};
    hw::EthernetSwitch ether{eng, cal.ethernet};
    hw::ScsiDisk disk{eng, cal.disk, 78};
    MpegClient client{eng, ether, cal.ethernet.stack_traversal};
    net::UdpEndpoint sched_ep{eng, ether, cal.ethernet.stack_traversal,
                              net::UdpEndpoint::Receiver{}};
    auto p = path::critical_path_b(eng, disk, bus, sched_ep, client.port());
    path::PathStats stats;
    path::pump(p, table4_source(n_transfers, 10'000'000,
                                path::Provenance::kNiDisk),
               kTable4Pacing, stats)
        .detach();
    eng.run();
    result.expt3_ms = client.latency_ms().mean();
    result.expt3_disk_ms = stats.stage_mean_ms("disk");
    result.expt3_pci_ms = stats.stage_mean_ms("pci");
    result.expt3_net_ms = client.net_latency_ms().mean();
    result.expt3_stages = stage_breakdown(stats);
  }

  // --- Experiment I (Path A): host system disk -> host CPU/filesystem ->
  // host NIC -> network, via UFS and via the mounted VxWorks dosFs.
  const auto run_host_path = [&](bool use_ufs) {
    sim::Engine eng;
    hw::EthernetSwitch ether{eng, cal.ethernet};
    hw::ScsiDisk disk{eng, cal.disk, 79};
    hostos::UfsFilesystem ufs{eng, disk, cal.fs};
    hostos::DosFilesystem dosfs{eng, disk, cal.fs};
    MpegClient client{eng, ether, cal.ethernet.stack_traversal};
    net::UdpEndpoint host_ep{eng, ether, net::kHostStackCost,
                             net::UdpEndpoint::Receiver{}};
    auto p = use_ufs
                 ? path::critical_path_a(eng, ufs, host_ep, client.port())
                 : path::critical_path_a(eng, dosfs, host_ep, client.port());
    path::PathStats stats;
    // The host serves the file sequentially (UFS read-ahead applies).
    path::pump(p, table4_source(n_transfers, mpeg::kPaperFrameBytes,
                                path::Provenance::kHostFile),
               kTable4Pacing, stats)
        .detach();
    eng.run();
    return std::make_pair(client.latency_ms().mean(), stage_breakdown(stats));
  };
  std::tie(result.expt1_ufs_ms, result.expt1_ufs_stages) = run_host_path(true);
  std::tie(result.expt1_dosfs_ms, result.expt1_dosfs_stages) =
      run_host_path(false);
  return result;
}

// ---------------------------------------------------------------------------
// Table 5.
// ---------------------------------------------------------------------------

PciBenchResult run_pci_bench(const hw::Calibration& cal) {
  sim::Engine eng;
  hw::PciBus bus{eng, cal.pci};
  PciBenchResult r;
  sim::Time done = sim::Time::never();
  bus.dma_async(mpeg::kPaperMpegFileBytes, [&] { done = eng.now(); });
  eng.run();
  r.mpeg_file_dma_us = done.to_us();
  r.mpeg_file_dma_mbps = static_cast<double>(mpeg::kPaperMpegFileBytes) /
                         (done.to_us() * 1e-6) / 1e6;
  r.pio_word_read_us = bus.pio_read_cost().to_us();
  r.pio_word_write_us = bus.pio_write_cost().to_us();
  return r;
}

// ---------------------------------------------------------------------------
// Figures 6-10.
// ---------------------------------------------------------------------------

namespace {

/// Figures 8/10's y-axis data: each stream's (frame#, queuing delay ms) for
/// every frame dispatched, indexed by stream id.
using QueuingDelays =
    std::vector<std::vector<std::pair<std::uint64_t, double>>>;

/// The service stores nothing per frame, so the experiment logs the series
/// itself. The dispatch observer fires at the dispatch instant, after
/// frames_sent() has counted the frame.
void log_queuing_delays(sim::Engine& eng, dvcm::StreamService& service,
                        QueuingDelays& out) {
  service.set_dispatch_observer(
      [&eng, &service, &out](dwcs::StreamId id, const dwcs::Dispatch& d) {
        if (out.size() <= id) out.resize(id + 1);
        out[id].emplace_back(service.frames_sent(id),
                             (eng.now() - d.frame.enqueued_at).to_ms());
      });
}

StreamOutcome make_outcome(MpegClient& client, dwcs::StreamId stream_id,
                           QueuingDelays& qdelay, sim::Time horizon) {
  StreamOutcome o;
  o.bandwidth_bps = client.bandwidth(stream_id);
  if (stream_id < qdelay.size()) o.qdelay_ms = std::move(qdelay[stream_id]);
  o.frames_delivered = client.frames_received(stream_id);
  o.settle_bandwidth_bps = settle_bandwidth(o.bandwidth_bps, horizon);
  for (const auto& [frame, d] : o.qdelay_ms) {
    o.max_qdelay_ms = std::max(o.max_qdelay_ms, d);
  }
  return o;
}

}  // namespace

LoadExperimentResult run_host_load_experiment(
    const LoadExperimentConfig& config) {
  sim::Engine eng;
  QueuingDelays qdelay;  // declared before the server whose observer fills it
  const auto& cal = config.cal;
  // Two CPUs online for the host-based experiments (paper §4.2.3).
  hostos::HostMachine host{eng, /*online_cpus=*/2, cal, sim::Time::sec(1)};
  hw::EthernetSwitch ether{eng, cal.ethernet};
  hw::ScsiDisk disk{eng, cal.disk, config.seed};
  hostos::UfsFilesystem fs{eng, disk, cal.fs};

  dvcm::StreamService::Config scfg;
  scfg.scheduler.ring_capacity = config.ring_capacity;
  scfg.scheduler.deadline_from_completion = true;
  // Host decision path: deeper software stack than the embedded build.
  scfg.scheduler.decision_overhead_cycles = 7000;  // ~35 us at 200 MHz
  scfg.dispatch_cycles = 500000;  // socket syscall + kernel UDP + copies (~2.5 ms)
  HostSchedulerServer server{host, ether, scfg, cal, /*affinity=*/0};
  log_queuing_delays(eng, server.service(), qdelay);
  if (config.scheduler_reservation > 0) {
    host.scheduler().set_reservation(server.process().thread(),
                                     config.scheduler_reservation,
                                     kReservationPeriod);
  }

  MpegClient client{eng, ether, cal.ethernet.stack_traversal};

  // Two MPEG streams (s1, s2), ~250 kbit/s each at 30 fps.
  mpeg::SyntheticEncoder enc1{small_frame_params(config.seed + 1)};
  mpeg::SyntheticEncoder enc2{small_frame_params(config.seed + 2)};
  const mpeg::MpegFile f1 = enc1.generate(config.frames_per_stream);
  const mpeg::MpegFile f2 = enc2.generate(config.frames_per_stream);

  // Lossy media streams: a frame that misses its deadline is dropped, not
  // transmitted late — §4.2.3's "packet-dropping leading to lower scheduling
  // quality" is exactly what Figure 7 plots.
  const dwcs::StreamParams sp{.tolerance = {2, 8},
                              .period = sim::Time::ms(33.333),
                              .lossy = true};
  const auto s1 = server.service().create_stream(sp, client.port());
  const auto s2 = server.service().create_stream(sp, client.port());

  hostos::Process& prod1 = host.spawn("mpeg-prod-1");
  hostos::Process& prod2 = host.spawn("mpeg-prod-2");
  ProducerStats ps1, ps2;
  host_file_producer(host, prod1, fs, f1, server.service(), ps1,
                     {.stream = s1, .disk_offset = 0})
      .detach();
  host_file_producer(host, prod2, fs, f2, server.service(), ps2,
                     {.stream = s2, .disk_offset = 100'000'000})
      .detach();

  // Web load on the other NIC/bus segment.
  WebServerModel web{host, config.seed + 9};
  std::unique_ptr<HttperfLoad> load;
  if (config.target_utilization > 0) {
    load = std::make_unique<HttperfLoad>(
        web, host,
        HttperfLoad::Params{.target_utilization = config.target_utilization,
                            .cpus = 2,
                            .stop = config.horizon,
                            .seed = config.seed + 13,
                            .profile = config.target_utilization >= 0.55
                                           ? HttperfLoad::figure6_heavy()
                                           : HttperfLoad::figure6_moderate()});
  }

  eng.run_until(config.horizon);
  client.finish(config.horizon);

  LoadExperimentResult r;
  r.cpu_utilization = host.perfmeter(config.horizon);
  r.avg_utilization =
      r.cpu_utilization.mean_between(sim::Time::zero(), config.horizon);
  for (const auto& [t, v] : r.cpu_utilization.points()) {
    r.peak_utilization = std::max(r.peak_utilization, v);
  }
  r.s1 = make_outcome(client, s1, qdelay, config.horizon);
  r.s2 = make_outcome(client, s2, qdelay, config.horizon);
  return r;
}

LoadExperimentResult run_ni_load_experiment(
    const LoadExperimentConfig& config) {
  sim::Engine eng;
  QueuingDelays qdelay;  // declared before the server whose observer fills it
  const auto& cal = config.cal;
  // One host CPU online for the NI experiments (paper §4.2.3).
  hostos::HostMachine host{eng, /*online_cpus=*/1, cal, sim::Time::sec(1)};
  hw::EthernetSwitch ether{eng, cal.ethernet};
  hw::PciBus bus{eng, cal.pci};

  dvcm::StreamService::Config scfg;
  scfg.scheduler.ring_capacity = config.ring_capacity;
  scfg.scheduler.deadline_from_completion = true;
  NiSchedulerServer server{eng, bus, ether, scfg, cal};
  log_queuing_delays(eng, server.service(), qdelay);

  MpegClient client{eng, ether, cal.ethernet.stack_traversal};

  mpeg::SyntheticEncoder enc1{small_frame_params(config.seed + 1)};
  mpeg::SyntheticEncoder enc2{small_frame_params(config.seed + 2)};
  const mpeg::MpegFile f1 = enc1.generate(config.frames_per_stream);
  const mpeg::MpegFile f2 = enc2.generate(config.frames_per_stream);

  // Lossy media streams: a frame that misses its deadline is dropped, not
  // transmitted late — §4.2.3's "packet-dropping leading to lower scheduling
  // quality" is exactly what Figure 7 plots.
  const dwcs::StreamParams sp{.tolerance = {2, 8},
                              .period = sim::Time::ms(33.333),
                              .lossy = true};
  const auto s1 = server.service().create_stream(sp, client.port());
  const auto s2 = server.service().create_stream(sp, client.port());

  // Path C producers: frames come off the board's own disks; the host CPU is
  // not on the data path at all.
  rtos::Task& t1 = server.kernel().spawn("tProd1", 120);
  rtos::Task& t2 = server.kernel().spawn("tProd2", 120);
  ProducerStats ps1, ps2;
  ni_disk_producer(eng, server.board().disk(0), t1, f1, server.service(), ps1,
                   {.stream = s1})
      .detach();
  ni_disk_producer(eng, server.board().disk(1), t2, f2, server.service(), ps2,
                   {.stream = s2})
      .detach();

  // The same 60%-class web load hammers the host — which the NI scheduler
  // never sees.
  WebServerModel web{host, config.seed + 9};
  std::unique_ptr<HttperfLoad> load;
  if (config.target_utilization > 0) {
    load = std::make_unique<HttperfLoad>(
        web, host,
        HttperfLoad::Params{.target_utilization = config.target_utilization,
                            .cpus = 1,
                            .stop = config.horizon,
                            .seed = config.seed + 13,
                            .profile = config.target_utilization >= 0.55
                                           ? HttperfLoad::figure6_heavy()
                                           : HttperfLoad::figure6_moderate()});
  }

  eng.run_until(config.horizon);
  client.finish(config.horizon);

  LoadExperimentResult r;
  r.cpu_utilization = host.perfmeter(config.horizon);
  r.avg_utilization =
      r.cpu_utilization.mean_between(sim::Time::zero(), config.horizon);
  for (const auto& [t, v] : r.cpu_utilization.points()) {
    r.peak_utilization = std::max(r.peak_utilization, v);
  }
  r.s1 = make_outcome(client, s1, qdelay, config.horizon);
  r.s2 = make_outcome(client, s2, qdelay, config.horizon);
  return r;
}

}  // namespace nistream::apps
