// Allocation audit for the classification fast path. After the control
// plane builds the FlowTable (categories sized, rules and prefixes
// installed — all of that may allocate), classify() must hit the global
// heap ZERO times across hundreds of thousands of lookups spanning exact
// hits, trie hits, and misses. Same counting-operator-new shim
// (counting_new.hpp) as the datapath audit in tests/path/alloc_free_test.cpp.
//
// Under ASan/TSan the sanitizer owns the allocator, so the shim is compiled
// out and the test degrades to exercising the same lookup mix.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "counting_new.hpp"
#include "ingress/flow_table.hpp"

namespace nistream::ingress {
namespace {

TEST(IngressAllocFree, ClassifyNeverTouchesTheHeap) {
  constexpr std::size_t kFlows = 10'000;
  constexpr std::size_t kPrefixes = 64;
  constexpr std::size_t kLookups = 200'000;

  FlowTable table;
  const auto full = table.add_category(kMatchFullTuple, kFlows);
  const auto host =
      table.add_category(kMatchSrcIp | kMatchDstIp | kMatchProto, kFlows / 2);
  // Odd streams get per-stream source hosts (the host-pair category ignores
  // ports, so the address must carry the distinction); even streams use the
  // canonical key in the full-tuple category.
  const auto key_for = [](dwcs::StreamId s) {
    const TenantId tenant = 1 + (s & 3u);
    FlowKey k = flow_key_of(tenant, s);
    if (s % 2 != 0) k.src_ip = tenant_prefix_of(tenant) | (s & 0xFFFFu);
    return k;
  };
  for (dwcs::StreamId s = 0; s < kFlows; ++s) {
    const TenantId tenant = 1 + (s & 3u);
    ASSERT_TRUE(table.insert(s % 2 == 0 ? full : host, key_for(s), tenant, s));
  }
  for (std::size_t i = 0; i < kPrefixes; ++i) {
    ASSERT_TRUE(table.insert_prefix(
        tenant_prefix_of(static_cast<TenantId>(8 + i)), 16,
        static_cast<TenantId>(8 + i)));
  }

  // Pre-render the key mix so the loop body is classify() and nothing else.
  std::vector<FlowKey> keys;
  keys.reserve(1024);
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < 1024; ++i) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    const auto roll = rng >> 56;  // 8-bit: ~10% trie, ~10% miss, ~80% exact
    if (roll < 26) {
      FlowKey k = flow_key_of(static_cast<TenantId>(8 + (rng & 63)), 0);
      k.src_ip |= (rng >> 8) & 0xFFFF;  // inside a ruled /16, no exact rule
      keys.push_back(k);
    } else if (roll < 52) {
      keys.push_back(flow_key_of(200, 1 << 20));  // unmatched
    } else {
      keys.push_back(key_for(static_cast<dwcs::StreamId>(rng % kFlows)));
    }
  }

  const std::uint64_t before = test::heap_allocs();
  std::uint64_t delivered = 0;
  for (std::size_t i = 0; i < kLookups; ++i) {
    delivered += table.classify(keys[i & 1023]).match == Match::kExact;
  }
  EXPECT_EQ(test::heap_allocs() - before, 0u)
      << "classification fast path allocated";

  EXPECT_EQ(table.stats().lookups, kLookups);
  EXPECT_GT(delivered, kLookups / 2);        // the exact-hit bulk
  EXPECT_GT(table.stats().trie_hits, 0u);    // trie fallback exercised
  EXPECT_GT(table.stats().misses, 0u);       // default-drop exercised
}

}  // namespace
}  // namespace nistream::ingress
