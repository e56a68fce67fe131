// Tests for the I2O hardware queue (1004-register circular buffer) and the
// host<->card message channel.
#include "hw/i2o.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace nistream::hw {
namespace {

TEST(HardwareQueue, PushPopFifo) {
  CpuModel cpu{kI960Rd};
  HardwareQueue q{cpu, 8};
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.capacity(), 7u);
  for (std::uint32_t i = 0; i < 7; ++i) EXPECT_TRUE(q.push(i));
  EXPECT_TRUE(q.full());
  EXPECT_FALSE(q.push(99));
  for (std::uint32_t i = 0; i < 7; ++i) {
    auto v = q.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(q.pop().has_value());
}

TEST(HardwareQueue, WrapsAround) {
  CpuModel cpu{kI960Rd};
  HardwareQueue q{cpu, 4};
  for (int round = 0; round < 10; ++round) {
    EXPECT_TRUE(q.push(static_cast<std::uint32_t>(round)));
    EXPECT_TRUE(q.push(static_cast<std::uint32_t>(round + 100)));
    EXPECT_EQ(*q.pop(), static_cast<std::uint32_t>(round));
    EXPECT_EQ(*q.pop(), static_cast<std::uint32_t>(round + 100));
  }
}

TEST(HardwareQueue, PeekPokeInPlace) {
  CpuModel cpu{kI960Rd};
  HardwareQueue q{cpu, 16};
  q.push(10);
  q.push(20);
  q.push(30);
  EXPECT_EQ(q.peek(0), 10u);
  EXPECT_EQ(q.peek(2), 30u);
  q.poke(1, 99);
  EXPECT_EQ(q.peek(1), 99u);
  q.pop();
  EXPECT_EQ(q.peek(0), 99u);  // indices are relative to the tail
}

TEST(HardwareQueue, AccessesChargeRegisterCostNotMemory) {
  CpuModel cpu{kI960Rd};
  cpu.dcache().set_enabled(false);  // register file must be unaffected
  HardwareQueue q{cpu, 1004};
  cpu.reset();
  q.push(1);
  EXPECT_EQ(cpu.cycles(), 2 * kI960Rd.mmio_reg_cycles);
  cpu.reset();
  (void)q.peek(0);
  EXPECT_EQ(cpu.cycles(), kI960Rd.mmio_reg_cycles);
}

TEST(HardwareQueue, DefaultSizeMatchesPaper) {
  CpuModel cpu{kI960Rd};
  HardwareQueue q{cpu};
  EXPECT_EQ(q.capacity(), 1003u);  // 1004 registers, one empty slot
}

TEST(I2oChannel, InboundDeliversAfterPostCost) {
  sim::Engine eng;
  PciBus bus{eng};
  I2oChannel chan{eng, bus};
  I2oMessage got;
  sim::Time got_at = sim::Time::never();
  auto consumer = [&]() -> sim::Coro {
    got = co_await chan.inbound().receive();
    got_at = eng.now();
  };
  consumer().detach();
  const sim::Time cost = chan.post_inbound(I2oMessage{.function = 5, .w0 = 42});
  eng.run();
  EXPECT_EQ(got.function, 5u);
  EXPECT_EQ(got.w0, 42u);
  // Posting cost: 16 words of PIO writes at 3.1 us.
  EXPECT_NEAR(cost.to_us(), 16 * 3.1, 0.01);
  EXPECT_NEAR(got_at.to_us(), cost.to_us() + kI2o.doorbell_latency.to_us(), 0.01);
}

TEST(I2oChannel, OutboundPath) {
  sim::Engine eng;
  PciBus bus{eng};
  I2oChannel chan{eng, bus};
  bool got = false;
  auto consumer = [&]() -> sim::Coro {
    const I2oMessage m = co_await chan.outbound().receive();
    got = (m.function == 9);
  };
  consumer().detach();
  chan.post_outbound(I2oMessage{.function = 9});
  eng.run();
  EXPECT_TRUE(got);
  EXPECT_EQ(chan.outbound_posted(), 1u);
}

TEST(I2oChannel, MessagesKeepOrder) {
  sim::Engine eng;
  PciBus bus{eng};
  I2oChannel chan{eng, bus};
  std::vector<std::uint32_t> order;
  auto consumer = [&]() -> sim::Coro {
    for (int i = 0; i < 3; ++i) {
      order.push_back((co_await chan.inbound().receive()).function);
    }
  };
  consumer().detach();
  chan.post_inbound(I2oMessage{.function = 1});
  chan.post_inbound(I2oMessage{.function = 2});
  chan.post_inbound(I2oMessage{.function = 3});
  eng.run();
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(I2oChannel, PayloadTransfersOwnership) {
  sim::Engine eng;
  PciBus bus{eng};
  I2oChannel chan{eng, bus};
  int result = 0;
  auto consumer = [&]() -> sim::Coro {
    const I2oMessage m = co_await chan.inbound().receive();
    result = *std::static_pointer_cast<int>(m.payload);
  };
  consumer().detach();
  chan.post_inbound(I2oMessage{.payload = std::make_shared<int>(1234)});
  eng.run();
  EXPECT_EQ(result, 1234);
}

TEST(I2oChannel, PostsInFlightLandInPostOrderWithTheirPayloadsOnTime) {
  // Each direction queues what is posted and its doorbell event hands over
  // the oldest message. Eight posts per direction, 5 us apart and
  // interleaved, are all in flight at once (a post costs ~50 us); each must
  // land post cost + doorbell latency after it was posted, in post order,
  // with its own function code and payload.
  constexpr int kPosts = 8;
  sim::Engine eng;
  PciBus bus{eng};
  I2oChannel chan{eng, bus};
  struct Landed {
    std::uint32_t function;
    int payload;
    sim::Time at;
    bool operator==(const Landed&) const = default;
  };
  std::vector<Landed> in;
  std::vector<Landed> out;
  auto consume = [&](sim::Mailbox<I2oMessage>& fifo,
                     std::vector<Landed>& got) -> sim::Coro {
    for (int i = 0; i < kPosts; ++i) {
      const I2oMessage m = co_await fifo.receive();
      got.push_back({m.function, *std::static_pointer_cast<int>(m.payload),
                     eng.now()});
    }
  };
  consume(chan.inbound(), in).detach();
  consume(chan.outbound(), out).detach();
  std::vector<Landed> want_in;
  std::vector<Landed> want_out;
  const sim::Time delay = chan.post_cost() + kI2o.doorbell_latency;
  for (int i = 0; i < kPosts; ++i) {
    const sim::Time at = sim::Time::us(5.0 * i);
    const auto n = static_cast<std::uint32_t>(i);
    eng.schedule_at(at, [&chan, n] {
      chan.post_inbound(I2oMessage{
          .function = n, .payload = std::make_shared<int>(100 + n)});
      chan.post_outbound(I2oMessage{
          .function = 50 + n, .payload = std::make_shared<int>(200 + n)});
    });
    want_in.push_back({n, 100 + i, at + delay});
    want_out.push_back({50 + n, 200 + i, at + delay});
  }
  eng.run_until(sim::Time::us(5.0 * (kPosts - 1)));
  EXPECT_TRUE(in.empty() && out.empty()) << "a post landed early";
  eng.run();
  EXPECT_EQ(in, want_in);
  EXPECT_EQ(out, want_out);
  EXPECT_EQ(chan.inbound_posted(), static_cast<std::uint64_t>(kPosts));
  EXPECT_EQ(chan.outbound_posted(), static_cast<std::uint64_t>(kPosts));
}

}  // namespace
}  // namespace nistream::hw
