// Per-component injection tests: faults land where they are aimed, with the
// documented recovery semantics (UDP discards corrupt frames, PCI retries,
// disk retries + latency spikes), and a disk fault storm on the full
// disk -> NI -> net path degrades throughput without wedging the pipeline.
#include <gtest/gtest.h>

#include <cstdint>

#include "apps/client.hpp"
#include "apps/media_server.hpp"
#include "apps/producer.hpp"
#include "fault/fault_plane.hpp"
#include "hw/ethernet.hpp"
#include "hw/i2o.hpp"
#include "hw/pci.hpp"
#include "hw/scsi_disk.hpp"
#include "mpeg/encoder.hpp"
#include "net/udp.hpp"
#include "sim/engine.hpp"

namespace nistream {
namespace {

fault::FaultProfile storm(double rate) {
  return fault::FaultProfile::uniform(rate, /*seed=*/4242);
}

TEST(LinkInjection, DropStormLosesEveryFrame) {
  sim::Engine eng;
  hw::EthernetSwitch ether{eng};
  fault::FaultPlane plane{eng, storm(1.0)};
  ether.set_fault(&plane.link());

  int delivered = 0;
  const int src = ether.add_port([](const hw::EthFrame&) {});
  const int dst = ether.add_port([&delivered](const hw::EthFrame&) {
    ++delivered;
  });
  for (int i = 0; i < 50; ++i) {
    ether.send(src, dst, hw::EthFrame{.bytes = 1000});
  }
  eng.run_until(sim::Time::sec(1));
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(ether.frames_lost(), 50u);
  EXPECT_EQ(plane.summary().frames_dropped, 50u);
}

TEST(LinkInjection, CorruptFramesAreDeliveredThenDiscardedByUdp) {
  sim::Engine eng;
  hw::EthernetSwitch ether{eng};
  auto profile = storm(0.0);
  profile.link.frame_corrupt_rate = 1.0;  // corrupt all, drop none
  fault::FaultPlane plane{eng, profile};
  ether.set_fault(&plane.link());

  net::UdpEndpoint tx{eng, ether, sim::Time::us(10),
                      [](const net::Packet&, sim::Time) {}};
  int received = 0;
  net::UdpEndpoint rx{eng, ether, sim::Time::us(10),
                      [&received](const net::Packet&, sim::Time) {
                        ++received;
                      }};
  for (int i = 0; i < 20; ++i) {
    tx.send(rx.port(), net::Packet{.stream_id = 1, .seq = 0, .bytes = 500});
  }
  eng.run_until(sim::Time::sec(1));
  // The frames crossed the wire (occupying it!) but failed CRC at the
  // receiving endpoint: delivered by the switch, counted corrupt, not
  // surfaced to the application.
  EXPECT_EQ(received, 0);
  EXPECT_EQ(ether.frames_lost(), 0u);
  EXPECT_EQ(rx.corrupt_dropped(), 20u);
  EXPECT_EQ(plane.summary().frames_corrupted, 20u);
}

TEST(I2oInjection, InboundDropStormSilencesTheBoard) {
  sim::Engine eng;
  hw::PciBus bus{eng};
  hw::I2oChannel ch{eng, bus};
  fault::FaultPlane plane{eng, storm(1.0)};
  ch.set_fault(&plane.i2o());

  int received = 0;
  [](hw::I2oChannel& c, int& n) -> sim::Coro {
    for (;;) {
      co_await c.inbound().receive();
      ++n;
    }
  }(ch, received).detach();

  for (int i = 0; i < 30; ++i) {
    hw::I2oMessage m;
    m.function = 0x42;
    (void)ch.post_inbound(m);  // PIO cost still paid; delivery lost
  }
  eng.run_until(sim::Time::sec(1));
  EXPECT_EQ(received, 0);
  EXPECT_EQ(plane.i2o().inbound_drops(), 30u);
  EXPECT_EQ(plane.summary().i2o_inbound_dropped, 30u);
}

TEST(I2oInjection, PartialStormIsSeedDeterministic) {
  const auto run = [] {
    sim::Engine eng;
    hw::PciBus bus{eng};
    hw::I2oChannel ch{eng, bus};
    fault::FaultPlane plane{eng, storm(0.5)};
    ch.set_fault(&plane.i2o());
    for (int i = 0; i < 200; ++i) {
      hw::I2oMessage m;
      m.function = 0x42;
      (void)ch.post_inbound(m);
    }
    return plane.i2o().inbound_drops();
  };
  const auto a = run();
  EXPECT_GT(a, 50u);
  EXPECT_LT(a, 150u);
  EXPECT_EQ(a, run());
}

TEST(PciInjection, TransactionErrorsRetryAndStretchTheTransfer) {
  sim::Engine eng;
  hw::PciBus clean_bus{eng};
  hw::PciBus faulty_bus{eng};
  fault::FaultPlane plane{eng, storm(1.0)};  // every attempt aborts
  faulty_bus.set_fault(&plane.pci());

  sim::Time clean_done, faulty_done;
  [](hw::PciBus& bus, sim::Time& done) -> sim::Coro {
    co_await bus.dma(64 * 1024);
    done = bus.engine().now();
  }(clean_bus, clean_done).detach();
  [](hw::PciBus& bus, sim::Time& done) -> sim::Coro {
    co_await bus.dma(64 * 1024);
    done = bus.engine().now();
  }(faulty_bus, faulty_done).detach();
  eng.run_until(sim::Time::sec(1));

  EXPECT_GT(clean_done, sim::Time::zero());
  EXPECT_GT(faulty_done, sim::Time::zero());
  // Rate 1.0 burns every retry: the transfer still completes (the model
  // gives up injecting after max_retries) but pays a penalty per attempt.
  EXPECT_EQ(faulty_bus.dma_retries(),
            static_cast<std::uint64_t>(plane.pci().policy().max_retries));
  EXPECT_GT(faulty_done, clean_done);
}

TEST(DiskInjection, ReadErrorsRetryAndSpikesStretchLatency) {
  sim::Engine eng;
  hw::ScsiDisk clean{eng};
  hw::ScsiDisk faulty{eng};
  fault::FaultPlane plane{eng, storm(1.0)};
  faulty.set_fault(&plane.disk());

  sim::Time clean_done, faulty_done;
  [](hw::ScsiDisk& d, sim::Time& done, sim::Engine& e) -> sim::Coro {
    co_await d.read(0, 64 * 1024);
    done = e.now();
  }(clean, clean_done, eng).detach();
  [](hw::ScsiDisk& d, sim::Time& done, sim::Engine& e) -> sim::Coro {
    co_await d.read(0, 64 * 1024);
    done = e.now();
  }(faulty, faulty_done, eng).detach();
  eng.run_until(sim::Time::sec(5));

  EXPECT_GT(clean_done, sim::Time::zero());
  EXPECT_GT(faulty_done, sim::Time::zero());
  EXPECT_EQ(faulty.read_retries(),
            static_cast<std::uint64_t>(plane.disk().policy().max_retries));
  EXPECT_GE(plane.summary().disk_spikes, 1u);
  // Spike multiplies the mechanical service time ~20x and each retry pays
  // overhead + transfer again: the faulty read is dramatically slower.
  EXPECT_GT(faulty_done.to_us(), clean_done.to_us() * 5.0);
}

TEST(DiskInjection, FaultStormOnDiskNiNetPathDegradesGracefully) {
  // Full pipeline: producer reads from the NI's disk, enqueues into the
  // board-resident scheduler, frames leave via board UDP to a client. A 30%
  // disk fault storm (retries + 20x spikes) must slow delivery, not wedge
  // the pipeline or kill the run.
  sim::Engine eng;
  hw::PciBus bus{eng};
  hw::EthernetSwitch ether{eng};
  apps::NiSchedulerServer server{eng, bus, ether};
  apps::MpegClient client{eng, ether};

  auto profile = storm(0.0);
  profile.disk.read_error_rate = 0.3;
  profile.disk.latency_spike_rate = 0.3;
  fault::FaultPlane plane{eng, profile};
  server.board().disk(0).set_fault(&plane.disk());

  const auto sid = server.service().create_stream(
      {.tolerance = {1, 4}, .period = sim::Time::ms(33), .lossy = true},
      client.port());
  rtos::Task& task = server.kernel().spawn("tProd", 120);
  mpeg::EncoderParams ep;
  ep.mean_i_bytes = 2000;
  ep.mean_p_bytes = 1000;
  ep.mean_b_bytes = 500;
  ep.seed = 5;
  const auto file = mpeg::SyntheticEncoder{ep}.generate(60);
  apps::ProducerStats stats;
  apps::ni_disk_producer(eng, server.board().disk(0), task, file,
                         server.service(), stats, {.stream = sid})
      .detach();
  eng.run_until(sim::Time::sec(5));

  EXPECT_GT(plane.summary().disk_read_errors + plane.summary().disk_spikes,
            0u);
  // Frames still flow end to end.
  EXPECT_GT(client.frames_received(sid), 30u);
}

}  // namespace
}  // namespace nistream
