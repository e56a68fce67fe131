// Tests for the assembled i960 RD board.
#include "hw/nic_board.hpp"

#include <gtest/gtest.h>

namespace nistream::hw {
namespace {

struct Fixture {
  sim::Engine eng;
  PciBus bus{eng};
  EthernetSwitch ether{eng};
  std::vector<EthFrame> received;
  NicBoard board{"ni0", eng, bus, ether,
                 [this](const EthFrame& f) { received.push_back(f); }};
};

TEST(NicBoard, HasPaperHardwareComplement) {
  Fixture f;
  EXPECT_EQ(f.board.memory().capacity(), 4ull * 1024 * 1024);
  EXPECT_NE(f.board.eth_port(0), f.board.eth_port(1));
  EXPECT_DOUBLE_EQ(f.board.cpu().hz(), 66e6);
}

TEST(NicBoard, ReceivesFramesOnBothPorts) {
  Fixture f;
  const int client = f.ether.add_port([](const EthFrame&) {});
  f.ether.send(client, f.board.eth_port(0), EthFrame{.bytes = 100, .tag = 1});
  f.ether.send(client, f.board.eth_port(1), EthFrame{.bytes = 100, .tag = 2});
  f.eng.run();
  ASSERT_EQ(f.received.size(), 2u);
}

TEST(NicBoard, DisksAreIndependentDrives) {
  Fixture f;
  sim::Time t0 = sim::Time::never(), t1 = sim::Time::never();
  f.board.disk(0).read_async(0, 1000, [&] { t0 = f.eng.now(); });
  f.board.disk(1).read_async(0, 1000, [&] { t1 = f.eng.now(); });
  f.eng.run();
  // Both complete without serializing on each other (separate SCSI buses) —
  // each in one mechanical access, not two.
  EXPECT_LT(t0.to_ms(), 8.0);
  EXPECT_LT(t1.to_ms(), 8.0);
}

TEST(NicBoard, TwoBoardsShareOnePciSegment) {
  sim::Engine eng;
  PciBus bus{eng};
  EthernetSwitch ether{eng};
  NicBoard a{"ni-a", eng, bus, ether, [](const EthFrame&) {}};
  NicBoard b{"ni-b", eng, bus, ether, [](const EthFrame&) {}};
  sim::Time ta = sim::Time::never(), tb = sim::Time::never();
  a.bus().dma_async(1000, [&] { ta = eng.now(); });
  b.bus().dma_async(1000, [&] { tb = eng.now(); });
  eng.run();
  EXPECT_NE(ta, tb);  // serialized on the shared segment
}

TEST(NicBoard, I2oChannelReachesBoardRuntime) {
  Fixture f;
  std::uint32_t got = 0;
  auto runtime = [&]() -> sim::Coro {
    got = (co_await f.board.i2o().inbound().receive()).function;
  };
  runtime().detach();
  f.board.i2o().post_inbound(I2oMessage{.function = 77});
  f.eng.run();
  EXPECT_EQ(got, 77u);
}

}  // namespace
}  // namespace nistream::hw
