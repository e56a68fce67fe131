// Footprint audits for the two stores a 100k-client storm fills at once: the
// engine's armed events (one arrival per client at t = 0) and the switch's
// ports (two per client). Each reads the live heap before and after filling
// the store, so it counts every page, vector and malloc header the store
// costs. Under sanitizers the heap shim is compiled out and the bounds are not
// asserted.
#include <gtest/gtest.h>

#include <cstdint>

#include "counting_new.hpp"
#include "hw/ethernet.hpp"
#include "sim/engine.hpp"
#include "sim/handle_table.hpp"

namespace nistream {
namespace {

using sim::Time;

constexpr std::int64_t kPageSlots = sim::HandleTable<int>::kPageSlots;

TEST(Footprint, ArmedEventCostsAtMostNinetySixBytes) {
  // An 80-byte slot, its 4-byte generation word and an 8-byte heap pointer,
  // with the heap vector's spare capacity on top; one page of slack.
  constexpr std::int64_t kEvents = 100'000;
  sim::Engine eng;
  std::int64_t fired = 0;
  const std::int64_t before = test::heap_live_bytes();
  for (std::int64_t i = 0; i < kEvents; ++i) {
    eng.schedule_at(Time::us(static_cast<double>(i % 1000)),
                    [&fired] { ++fired; });
  }
  const std::int64_t grown = test::heap_live_bytes() - before;
  EXPECT_EQ(eng.pending_events(), static_cast<std::size_t>(kEvents));
#if NISTREAM_COUNTING_NEW
  constexpr std::int64_t kBytesPerEvent = 96;
  EXPECT_LE(grown, (kEvents + kPageSlots) * kBytesPerEvent)
      << static_cast<double>(grown) / kEvents << " bytes per armed event";
#else
  (void)grown;
#endif
  eng.run();
  EXPECT_EQ(fired, kEvents);
}

TEST(Footprint, SwitchPortCostsAtMostFortyEightBytes) {
  // A 40-byte entry and its 4-byte generation word: 2,048 ports fill two
  // pages, and the page list fits in the slack.
  constexpr int kPorts = 2 * kPageSlots;
  sim::Engine eng;
  hw::EthernetSwitch sw{eng};
  const std::int64_t before = test::heap_live_bytes();
  for (int i = 0; i < kPorts; ++i) sw.add_port([](const hw::EthFrame&) {});
  const std::int64_t grown = test::heap_live_bytes() - before;
  EXPECT_EQ(sw.port_table_size(), static_cast<std::size_t>(kPorts));
#if NISTREAM_COUNTING_NEW
  constexpr std::int64_t kBytesPerPort = 48;
  EXPECT_LE(grown, kPorts * kBytesPerPort)
      << static_cast<double>(grown) / kPorts << " bytes per port";
#else
  (void)grown;
#endif
}

}  // namespace
}  // namespace nistream
