// Integration tests for the server organizations and producers: host-based
// (Path A) and NI-based (Paths B and C) frame pipelines, end to end.
#include "apps/media_server.hpp"

#include <gtest/gtest.h>

#include "apps/client.hpp"
#include "apps/producer.hpp"
#include "hostos/filesystem.hpp"
#include "mpeg/encoder.hpp"

namespace nistream::apps {
namespace {

using sim::Time;

mpeg::MpegFile small_file(int frames, std::uint64_t seed) {
  mpeg::EncoderParams p;
  p.mean_i_bytes = 2000;
  p.mean_p_bytes = 1000;
  p.mean_b_bytes = 500;
  p.seed = seed;
  return mpeg::SyntheticEncoder{p}.generate(frames);
}

TEST(HostServer, PathAEndToEnd) {
  sim::Engine eng;
  hostos::HostMachine host{eng, 2};
  hw::EthernetSwitch ether{eng};
  hw::ScsiDisk disk{eng};
  hostos::UfsFilesystem fs{eng, disk};
  HostSchedulerServer server{host, ether};
  MpegClient client{eng, ether};

  const auto file = small_file(30, 1);
  const auto sid = server.service().create_stream(
      {.tolerance = {1, 4}, .period = Time::ms(33), .lossy = true},
      client.port());
  hostos::Process& prod = host.spawn("producer");
  ProducerStats stats;
  host_file_producer(host, prod, fs, file, server.service(), stats,
                     {.stream = sid})
      .detach();
  eng.run_until(Time::sec(3));

  EXPECT_TRUE(stats.finished);
  EXPECT_EQ(stats.frames_produced, 30u);
  EXPECT_EQ(client.frames_received(sid), 30u);
  EXPECT_EQ(client.total_bytes(), file.total_frame_bytes());
}

TEST(NiServer, PathCEndToEnd) {
  sim::Engine eng;
  hw::PciBus bus{eng};
  hw::EthernetSwitch ether{eng};
  NiSchedulerServer server{eng, bus, ether};
  MpegClient client{eng, ether};

  const auto file = small_file(30, 2);
  const auto sid = server.service().create_stream(
      {.tolerance = {1, 4}, .period = Time::ms(33), .lossy = true},
      client.port());
  rtos::Task& task = server.kernel().spawn("tProd", 120);
  ProducerStats stats;
  ni_disk_producer(eng, server.board().disk(0), task, file, server.service(),
                   stats, {.stream = sid})
      .detach();
  eng.run_until(Time::sec(3));

  EXPECT_TRUE(stats.finished);
  EXPECT_EQ(client.frames_received(sid), 30u);
  // Path C: zero PCI traffic — the bus never saw a byte of frame data.
  EXPECT_EQ(bus.bytes_moved(), 0u);
}

TEST(NiServer, PathBCrossesPciOnce) {
  sim::Engine eng;
  hw::PciBus bus{eng};
  hw::EthernetSwitch ether{eng};
  NiSchedulerServer server{eng, bus, ether};
  // The producer board (disk-attached NI) is separate from the scheduler NI.
  hw::NicBoard producer_board{"producer-ni", eng, bus, ether,
                              [](const hw::EthFrame&) {}};
  rtos::WindKernel producer_kernel{eng, producer_board.cpu()};
  MpegClient client{eng, ether};

  const auto file = small_file(20, 3);
  const auto sid = server.service().create_stream(
      {.tolerance = {1, 4}, .period = Time::ms(33), .lossy = true},
      client.port());
  rtos::Task& task = producer_kernel.spawn("tProd", 120);
  ProducerStats stats;
  ni_disk_producer(eng, producer_board.disk(0), task, file, server.service(),
                   stats, {.stream = sid, .cross_bus = &bus})
      .detach();
  eng.run_until(Time::sec(3));

  EXPECT_TRUE(stats.finished);
  EXPECT_EQ(client.frames_received(sid), 20u);
  // Path B: every frame crossed the PCI bus exactly once.
  EXPECT_EQ(bus.bytes_moved(), file.total_frame_bytes());
  EXPECT_EQ(bus.transfers(), 20u);
}

TEST(Producers, BackpressureRetriesInsteadOfDropping) {
  sim::Engine eng;
  hw::PciBus bus{eng};
  hw::EthernetSwitch ether{eng};
  dvcm::StreamService::Config cfg;
  cfg.scheduler.ring_capacity = 4;  // tiny ring forces retries
  NiSchedulerServer server{eng, bus, ether, cfg};
  MpegClient client{eng, ether};

  const auto file = small_file(25, 4);
  const auto sid = server.service().create_stream(
      {.tolerance = {1, 4}, .period = Time::ms(5), .lossy = true},
      client.port());
  rtos::Task& task = server.kernel().spawn("tProd", 120);
  ProducerStats stats;
  ni_disk_producer(eng, server.board().disk(0), task, file, server.service(),
                   stats, {.stream = sid})
      .detach();
  eng.run_until(Time::sec(3));

  EXPECT_TRUE(stats.finished);
  EXPECT_GT(stats.retries, 0u);                 // it did hit the full ring
  EXPECT_EQ(client.frames_received(sid), 25u);  // yet nothing was lost
}

TEST(HostServer, PbindAffinityIsApplied) {
  sim::Engine eng;
  hostos::HostMachine host{eng, 2};
  hw::EthernetSwitch ether{eng};
  HostSchedulerServer server{host, ether, {}, {}, /*affinity=*/1};
  const auto sid = server.service().create_stream(
      {.tolerance = {1, 4}, .period = Time::ms(10), .lossy = true}, 0);
  server.service().enqueue(sid, 1000, mpeg::FrameType::kP);
  eng.run_until(Time::ms(100));
  // All scheduler CPU time landed on the bound CPU.
  EXPECT_GT(server.process().cpu_time(), Time::zero());
  EXPECT_EQ(host.scheduler().cpu_meter(0).total_busy(), Time::zero());
  EXPECT_GT(host.scheduler().cpu_meter(1).total_busy(), Time::zero());
}

}  // namespace
}  // namespace nistream::apps
