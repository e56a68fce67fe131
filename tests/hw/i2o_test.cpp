// Tests for the I2O host<->card message channel.
#include "hw/i2o.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace nistream::hw {
namespace {

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
