// Differential tests: the FramePath compositions must reproduce the
// hand-rolled loops they replaced *bit-identically* — same seeds, same
// event order, same charges, same Welford-accumulated statistics. The
// legacy implementations are copied here verbatim (from the pre-refactor
// apps/experiments.cpp and apps/producer.hpp) as the reference; each test
// runs reference and refactored pipelines on twin engines and compares
// exact doubles and exact sim::Time values (Time is integer nanoseconds,
// so == is meaningful).
#include <gtest/gtest.h>

#include "apps/client.hpp"
#include "apps/media_server.hpp"
#include "apps/producer.hpp"
#include "hostos/filesystem.hpp"
#include "mpeg/encoder.hpp"
#include "path/paths.hpp"

namespace nistream::path {
namespace {

using sim::Time;

constexpr int kTransfers = 200;
constexpr Pacing kTable4Pacing{.burst_frames = 0, .gap = Time::ms(3),
                               .where = Pacing::Where::kAfterFrame};

FrameSource table4_source(int n, std::uint64_t stride) {
  return fixed_frame_source(
      static_cast<std::uint64_t>(n), mpeg::kPaperFrameBytes,
      [stride](std::uint64_t seq) { return seq * stride; });
}

// ---------------------------------------------------------------------------
// Table 4, Path C: NI disk -> NI CPU -> network.
// ---------------------------------------------------------------------------

TEST(Table4Equivalence, PathC) {
  // Reference: the pre-refactor loop, verbatim.
  double ref_latency, ref_latency_max;
  Time ref_end;
  {
    hw::Calibration cal;
    sim::Engine eng;
    hw::PciBus bus{eng, cal.pci};
    hw::EthernetSwitch ether{eng, cal.ethernet};
    hw::ScsiDisk disk{eng, cal.disk, 77};
    apps::MpegClient client{eng, ether, cal.ethernet.stack_traversal};
    net::UdpEndpoint ni_ep{eng, ether, cal.ethernet.stack_traversal,
                           net::UdpEndpoint::Receiver{}};
    auto proc = [&]() -> sim::Coro {
      for (int i = 0; i < kTransfers; ++i) {
        const Time t0 = eng.now();
        co_await disk.read(static_cast<std::uint64_t>(i) * 10'000'000,
                           mpeg::kPaperFrameBytes);
        net::Packet pkt{.stream_id = 0, .seq = static_cast<std::uint64_t>(i),
                        .bytes = mpeg::kPaperFrameBytes,
                        .frame_type = mpeg::FrameType::kP,
                        .enqueued_at = t0, .dispatched_at = eng.now()};
        ni_ep.send(client.port(), pkt);
        co_await sim::Delay{eng, Time::ms(3)};
      }
    };
    proc().detach();
    ref_end = eng.run();
    ref_latency = client.latency_ms().mean();
    ref_latency_max = client.latency_ms().max();
  }

  // Refactored: the declarative composition, same seed.
  {
    hw::Calibration cal;
    sim::Engine eng;
    hw::PciBus bus{eng, cal.pci};
    hw::EthernetSwitch ether{eng, cal.ethernet};
    hw::ScsiDisk disk{eng, cal.disk, 77};
    apps::MpegClient client{eng, ether, cal.ethernet.stack_traversal};
    net::UdpEndpoint ni_ep{eng, ether, cal.ethernet.stack_traversal,
                           net::UdpEndpoint::Receiver{}};
    auto p = critical_path_c(eng, disk, ni_ep, client.port());
    PathStats stats;
    pump(p, table4_source(kTransfers, 10'000'000), kTable4Pacing, stats)
        .detach();
    const Time end = eng.run();

    EXPECT_EQ(end, ref_end);  // identical event sequence, to the nanosecond
    EXPECT_EQ(client.latency_ms().mean(), ref_latency);
    EXPECT_EQ(client.latency_ms().max(), ref_latency_max);
    EXPECT_EQ(stats.frames_produced,
              static_cast<std::uint64_t>(kTransfers));
  }
}

// ---------------------------------------------------------------------------
// Table 4, Path B: disk -> PCI p2p DMA -> scheduler NI -> network, with the
// hand-kept RunningStat decomposition vs the path's stage stamps.
// ---------------------------------------------------------------------------

TEST(Table4Equivalence, PathBWithDecomposition) {
  double ref_latency, ref_disk_ms, ref_pci_ms, ref_net_ms;
  Time ref_end;
  {
    hw::Calibration cal;
    sim::Engine eng;
    hw::PciBus bus{eng, cal.pci};
    hw::EthernetSwitch ether{eng, cal.ethernet};
    hw::ScsiDisk disk{eng, cal.disk, 78};
    apps::MpegClient client{eng, ether, cal.ethernet.stack_traversal};
    net::UdpEndpoint sched_ep{eng, ether, cal.ethernet.stack_traversal,
                              net::UdpEndpoint::Receiver{}};
    sim::RunningStat disk_ms, pci_ms;
    auto proc = [&]() -> sim::Coro {
      for (int i = 0; i < kTransfers; ++i) {
        const Time t0 = eng.now();
        co_await disk.read(static_cast<std::uint64_t>(i) * 10'000'000,
                           mpeg::kPaperFrameBytes);
        const Time t1 = eng.now();
        disk_ms.add((t1 - t0).to_ms());
        co_await bus.dma(mpeg::kPaperFrameBytes);
        pci_ms.add((eng.now() - t1).to_ms());
        net::Packet pkt{.stream_id = 0, .seq = static_cast<std::uint64_t>(i),
                        .bytes = mpeg::kPaperFrameBytes,
                        .frame_type = mpeg::FrameType::kP,
                        .enqueued_at = t0, .dispatched_at = eng.now()};
        sched_ep.send(client.port(), pkt);
        co_await sim::Delay{eng, Time::ms(3)};
      }
    };
    proc().detach();
    ref_end = eng.run();
    ref_latency = client.latency_ms().mean();
    ref_disk_ms = disk_ms.mean();
    ref_pci_ms = pci_ms.mean();
    ref_net_ms = client.net_latency_ms().mean();
  }

  {
    hw::Calibration cal;
    sim::Engine eng;
    hw::PciBus bus{eng, cal.pci};
    hw::EthernetSwitch ether{eng, cal.ethernet};
    hw::ScsiDisk disk{eng, cal.disk, 78};
    apps::MpegClient client{eng, ether, cal.ethernet.stack_traversal};
    net::UdpEndpoint sched_ep{eng, ether, cal.ethernet.stack_traversal,
                              net::UdpEndpoint::Receiver{}};
    auto p = critical_path_b(eng, disk, bus, sched_ep, client.port());
    PathStats stats;
    pump(p, table4_source(kTransfers, 10'000'000), kTable4Pacing, stats)
        .detach();
    const Time end = eng.run();

    EXPECT_EQ(end, ref_end);
    EXPECT_EQ(client.latency_ms().mean(), ref_latency);
    // The hand-kept decomposition falls out of the stage stamps — same
    // values in the same Welford order, so exactly equal doubles.
    EXPECT_EQ(stats.stage_mean_ms("disk"), ref_disk_ms);
    EXPECT_EQ(stats.stage_mean_ms("pci"), ref_pci_ms);
    EXPECT_EQ(client.net_latency_ms().mean(), ref_net_ms);
  }
}

// ---------------------------------------------------------------------------
// Table 4, Path A: host filesystem -> host NIC, UFS and dosFs.
// ---------------------------------------------------------------------------

TEST(Table4Equivalence, PathABothFilesystems) {
  for (const bool use_ufs : {true, false}) {
    double ref_latency;
    Time ref_end;
    {
      hw::Calibration cal;
      sim::Engine eng;
      hw::EthernetSwitch ether{eng, cal.ethernet};
      hw::ScsiDisk disk{eng, cal.disk, 79};
      hostos::UfsFilesystem ufs{eng, disk, cal.fs};
      hostos::DosFilesystem dosfs{eng, disk, cal.fs};
      apps::MpegClient client{eng, ether, cal.ethernet.stack_traversal};
      net::UdpEndpoint host_ep{eng, ether, net::kHostStackCost,
                               net::UdpEndpoint::Receiver{}};
      auto proc = [&]() -> sim::Coro {
        for (int i = 0; i < kTransfers; ++i) {
          const Time t0 = eng.now();
          const auto off =
              static_cast<std::uint64_t>(i) * mpeg::kPaperFrameBytes;
          if (use_ufs) {
            co_await ufs.read(off, mpeg::kPaperFrameBytes);
          } else {
            co_await dosfs.read(off, mpeg::kPaperFrameBytes);
          }
          net::Packet pkt{.stream_id = 0,
                          .seq = static_cast<std::uint64_t>(i),
                          .bytes = mpeg::kPaperFrameBytes,
                          .frame_type = mpeg::FrameType::kP,
                          .enqueued_at = t0, .dispatched_at = eng.now()};
          host_ep.send(client.port(), pkt);
          co_await sim::Delay{eng, Time::ms(3)};
        }
      };
      proc().detach();
      ref_end = eng.run();
      ref_latency = client.latency_ms().mean();
    }

    {
      hw::Calibration cal;
      sim::Engine eng;
      hw::EthernetSwitch ether{eng, cal.ethernet};
      hw::ScsiDisk disk{eng, cal.disk, 79};
      hostos::UfsFilesystem ufs{eng, disk, cal.fs};
      hostos::DosFilesystem dosfs{eng, disk, cal.fs};
      apps::MpegClient client{eng, ether, cal.ethernet.stack_traversal};
      net::UdpEndpoint host_ep{eng, ether, net::kHostStackCost,
                               net::UdpEndpoint::Receiver{}};
      auto p = use_ufs ? critical_path_a(eng, ufs, host_ep, client.port())
                       : critical_path_a(eng, dosfs, host_ep, client.port());
      PathStats stats;
      pump(p, table4_source(kTransfers, mpeg::kPaperFrameBytes),
           kTable4Pacing, stats)
          .detach();
      const Time end = eng.run();

      EXPECT_EQ(end, ref_end) << (use_ufs ? "ufs" : "dosfs");
      EXPECT_EQ(client.latency_ms().mean(), ref_latency)
          << (use_ufs ? "ufs" : "dosfs");
    }
  }
}

// ---------------------------------------------------------------------------
// Producers: the FramePath-backed ni_disk_producer vs the pre-refactor
// hand-rolled loop, through a full NI scheduler server.
// ---------------------------------------------------------------------------

struct ProducerFingerprint {
  std::uint64_t frames = 0;
  std::uint64_t retries = 0;
  bool finished = false;
  Time finished_at;
  std::uint64_t delivered = 0;
  double client_latency_mean = 0;
  Time ni_cpu_busy;
  std::uint64_t pci_bytes = 0;
};

mpeg::MpegFile producer_file() {
  mpeg::EncoderParams p;
  p.mean_i_bytes = 2000;
  p.mean_p_bytes = 1000;
  p.mean_b_bytes = 500;
  p.seed = 17;
  return mpeg::SyntheticEncoder{p}.generate(40);
}

// The pre-refactor apps::ni_disk_producer body, verbatim.
sim::Coro legacy_ni_disk_producer(sim::Engine& engine, hw::ScsiDisk& disk,
                                  rtos::Task& task,
                                  const mpeg::MpegFile& file,
                                  dvcm::StreamService& service,
                                  dwcs::StreamId stream,
                                  hw::PciBus* cross_bus,
                                  ProducerFingerprint& stats) {
  std::uint64_t offset = 0;
  for (const auto& frame : file.frames) {
    co_await disk.read(offset, frame.bytes);
    offset += frame.bytes;
    co_await task.consume_cycles(apps::kSegmentationCyclesPerFrame);
    if (cross_bus) co_await cross_bus->dma(frame.bytes);
    while (!service.enqueue(stream, frame.bytes, frame.type)) {
      ++stats.retries;
      co_await sim::Delay{engine, apps::kEnqueueBackoff};
    }
    ++stats.frames;
  }
  stats.finished = true;
  stats.finished_at = engine.now();
}

template <typename SpawnProducer>
ProducerFingerprint run_ni_scenario(bool cross_bus, SpawnProducer&& spawn) {
  sim::Engine eng;
  hw::PciBus bus{eng};
  hw::EthernetSwitch ether{eng};
  apps::NiSchedulerServer server{eng, bus, ether};
  apps::MpegClient client{eng, ether};
  const auto file = producer_file();
  const auto sid = server.service().create_stream(
      {.tolerance = {1, 4}, .period = Time::ms(33), .lossy = true},
      client.port());
  rtos::Task& task = server.kernel().spawn("tProd", 120);
  ProducerFingerprint fp;
  spawn(eng, server, task, file, sid, cross_bus ? &bus : nullptr, fp);
  eng.run_until(Time::sec(3));
  fp.delivered = client.frames_received(sid);
  fp.client_latency_mean = client.latency_ms().mean();
  fp.ni_cpu_busy = server.kernel().ni_cpu_busy();
  fp.pci_bytes = bus.bytes_moved();
  return fp;
}

TEST(ProducerEquivalence, NiDiskPathsBAndC) {
  for (const bool cross_bus : {false, true}) {
    const auto ref = run_ni_scenario(
        cross_bus,
        [](sim::Engine& eng, apps::NiSchedulerServer& server,
           rtos::Task& task, const mpeg::MpegFile& file, dwcs::StreamId sid,
           hw::PciBus* bus, ProducerFingerprint& fp) {
          legacy_ni_disk_producer(eng, server.board().disk(0), task, file,
                                  server.service(), sid, bus, fp)
              .detach();
        });
    apps::ProducerStats stats;
    const auto got = run_ni_scenario(
        cross_bus,
        [&stats](sim::Engine& eng, apps::NiSchedulerServer& server,
                 rtos::Task& task, const mpeg::MpegFile& file,
                 dwcs::StreamId sid, hw::PciBus* bus,
                 ProducerFingerprint& fp) {
          apps::ni_disk_producer(eng, server.board().disk(0), task, file,
                                 server.service(), stats,
                                 {.stream = sid, .cross_bus = bus})
              .detach();
          (void)fp;
        });

    EXPECT_EQ(stats.frames_produced, ref.frames);
    EXPECT_EQ(stats.retries, ref.retries);
    EXPECT_EQ(stats.finished, ref.finished);
    EXPECT_EQ(stats.finished_at, ref.finished_at);
    EXPECT_EQ(got.delivered, ref.delivered);
    EXPECT_EQ(got.client_latency_mean, ref.client_latency_mean);
    EXPECT_EQ(got.ni_cpu_busy, ref.ni_cpu_busy);
    EXPECT_EQ(got.pci_bytes, ref.pci_bytes);
  }
}

// ---------------------------------------------------------------------------
// Per-frame accounting: stamped stage latencies sum exactly to the frame's
// end-to-end pipeline latency, on a real contended producer path.
// ---------------------------------------------------------------------------

TEST(StageAccounting, StampsSumToEndToEnd) {
  sim::Engine eng;
  hw::PciBus bus{eng};
  hw::EthernetSwitch ether{eng};
  dvcm::StreamService::Config cfg;
  cfg.scheduler.ring_capacity = 4;  // tiny ring: enqueue backoff is real
  apps::NiSchedulerServer server{eng, bus, ether, cfg};
  apps::MpegClient client{eng, ether};
  const auto file = producer_file();
  const auto sid = server.service().create_stream(
      {.tolerance = {1, 4}, .period = Time::ms(5), .lossy = true},
      client.port());
  rtos::Task& task = server.kernel().spawn("tProd", 120);

  auto p = producer_path_b(eng, server.board().disk(0), task, bus,
                           server.service());
  PathStats stats;
  int checked = 0;
  pump(p, mpeg_file_source(file, sid, 0, Provenance::kNiDisk), {}, stats,
       [&checked](const StagedFrame& f) {
         EXPECT_EQ(f.staged_total(), f.completed_at - f.created_at);
         EXPECT_EQ(f.stage_count, 4u);  // disk, segment, pci, enqueue
         ++checked;
       })
      .detach();
  eng.run_until(Time::sec(3));

  EXPECT_TRUE(stats.finished);
  EXPECT_EQ(checked, 40);
  // The aggregate view agrees with per-frame tiling too: means of parts sum
  // to the mean of the whole (same per-frame partitions, averaged).
  const double sum_of_means =
      stats.stage_mean_ms("disk") + stats.stage_mean_ms("segment") +
      stats.stage_mean_ms("pci") + stats.stage_mean_ms("enqueue");
  EXPECT_NEAR(sum_of_means, stats.total_ms.mean(), 1e-9);
}

// ---------------------------------------------------------------------------
// Cluster synthetic producers: the FramePath-backed spawn vs the
// pre-refactor inline coroutine, draw-for-draw.
// ---------------------------------------------------------------------------

// The pre-refactor body of the cluster nodes' spawn_producer (apps::ServerNode,
// since removed), verbatim.
sim::Coro legacy_synthetic_producer(sim::Engine& eng,
                                    dvcm::StreamService& svc, rtos::Task& t,
                                    dwcs::StreamId sid, Time period,
                                    std::uint32_t mean_bytes, int frames,
                                    std::uint64_t rng_seed) {
  sim::Rng rng{rng_seed};
  for (int k = 0; k < frames; ++k) {
    const auto bytes = static_cast<std::uint32_t>(
        std::max(128.0, rng.normal(mean_bytes, mean_bytes * 0.15)));
    co_await t.consume_cycles(apps::kSegmentationCyclesPerFrame);
    while (!svc.enqueue(sid, bytes,
                        k % 12 == 0 ? mpeg::FrameType::kI
                                    : mpeg::FrameType::kP)) {
      co_await sim::Delay{eng, apps::kEnqueueBackoff};
    }
    co_await sim::Delay{eng, period};
  }
}

TEST(ProducerEquivalence, ClusterSyntheticProducer) {
  const auto run = [](bool legacy) {
    sim::Engine eng;
    hw::PciBus bus{eng};
    hw::EthernetSwitch ether{eng};
    apps::NiSchedulerServer server{eng, bus, ether};
    apps::MpegClient client{eng, ether};
    const auto sid = server.service().create_stream(
        {.tolerance = {2, 8}, .period = Time::ms(33), .lossy = true},
        client.port());
    rtos::Task& task = server.kernel().spawn("tProd0", 120);
    apps::ProducerStats stats;
    if (legacy) {
      legacy_synthetic_producer(eng, server.service(), task, sid,
                                Time::ms(33), 1200, 50, 99)
          .detach();
    } else {
      apps::spawn_synthetic_producer(
          server, task, sid,
          {.mean_frame_bytes = 1200, .n_frames = 50,
           .period = Time::ms(33), .seed = 99},
          stats);
    }
    eng.run_until(Time::sec(4));
    return std::tuple{client.frames_received(sid), client.total_bytes(),
                      client.latency_ms().mean(),
                      server.kernel().ni_cpu_busy()};
  };
  EXPECT_EQ(run(true), run(false));
}

}  // namespace
}  // namespace nistream::path
