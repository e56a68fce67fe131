// FlowTable unit tests: tuple-space search semantics (masked categories,
// probe order), the longest-prefix trie fallback, the default-drop verdict,
// and the fixed-capacity discipline (inserts fail, tables never grow); then
// IngressDemux verdict routing off the wire, the table's one classify step.
#include "ingress/flow_table.hpp"

#include <gtest/gtest.h>

#include "hw/calibration.hpp"
#include "ingress/demux.hpp"

namespace nistream::ingress {
namespace {

using sim::Time;

TEST(FlowTable, RecordStaysTwoPerCacheLine) {
  static_assert(sizeof(FlowRecord) == 32);
  SUCCEED();
}

TEST(FlowTable, ExactMatchRoundTrip) {
  FlowTable t;
  const auto cat = t.add_category(kMatchFullTuple, 16);
  const FlowKey k = flow_key_of(3, 41);
  ASSERT_TRUE(t.insert(cat, k, /*tenant=*/3, /*stream=*/41));

  const Decision d = t.classify(k);
  EXPECT_EQ(d.match, Match::kExact);
  EXPECT_FALSE(d.drop);
  EXPECT_EQ(d.tenant, 3u);
  EXPECT_EQ(d.stream, 41u);
  EXPECT_EQ(d.category, cat);
  EXPECT_GE(d.probes, 1u);
  EXPECT_EQ(t.hits(cat, k), 1u);
}

TEST(FlowTable, MaskedCategoryIgnoresWildcardFields) {
  FlowTable t;
  // Category keyed on (src_ip, proto) only: any ports / dst match.
  const auto cat = t.add_category(kMatchSrcIp | kMatchProto, 8);
  FlowKey rule = flow_key_of(1, 7);
  ASSERT_TRUE(t.insert(cat, rule, 1, 7));

  FlowKey probe = rule;
  probe.src_port = 9999;   // wildcard within this category
  probe.dst_ip = 0x01020304;
  EXPECT_EQ(t.classify(probe).match, Match::kExact);

  probe.src_ip ^= 1;       // masked field differs → miss
  EXPECT_EQ(t.classify(probe).match, Match::kMiss);
}

TEST(FlowTable, CategoriesProbeInAddOrder) {
  FlowTable t;
  const auto specific = t.add_category(kMatchFullTuple, 8);
  const auto broad = t.add_category(kMatchSrcIp, 8);
  const FlowKey k = flow_key_of(2, 5);
  ASSERT_TRUE(t.insert(specific, k, 2, 5));
  ASSERT_TRUE(t.insert(broad, k, 2, 999));  // same src_ip, coarser rule

  // Most specific category was added first, so it wins.
  EXPECT_EQ(t.classify(k).stream, 5u);

  // A key matching only the broad category falls through to it.
  FlowKey other = k;
  other.src_port ^= 1;
  const Decision d = t.classify(other);
  EXPECT_EQ(d.match, Match::kExact);
  EXPECT_EQ(d.stream, 999u);
  EXPECT_EQ(d.category, broad);
}

TEST(FlowTable, TrieLongestPrefixWins) {
  FlowTable t;
  ASSERT_TRUE(t.insert_prefix(tenant_prefix_of(1), 16, /*tenant=*/1));
  // A nested, more specific /24 owned by tenant 2.
  ASSERT_TRUE(t.insert_prefix(tenant_prefix_of(1) | 0x4200, 24, 2));

  FlowKey in24 = flow_key_of(1, 0);
  in24.src_ip = tenant_prefix_of(1) | 0x4217;
  const Decision deep = t.classify(in24);
  EXPECT_EQ(deep.match, Match::kPrefix);
  EXPECT_EQ(deep.tenant, 2u);
  EXPECT_EQ(deep.prefix_len, 24u);
  EXPECT_TRUE(deep.drop);
  EXPECT_EQ(deep.category, Decision::kTrieCategory);

  FlowKey in16 = in24;
  in16.src_ip = tenant_prefix_of(1) | 0x1111;
  const Decision shallow = t.classify(in16);
  EXPECT_EQ(shallow.tenant, 1u);
  EXPECT_EQ(shallow.prefix_len, 16u);
}

TEST(FlowTable, ExactBeatsPrefix) {
  FlowTable t;
  const auto cat = t.add_category(kMatchFullTuple, 8);
  const FlowKey k = flow_key_of(4, 10);
  ASSERT_TRUE(t.insert(cat, k, 4, 10));
  ASSERT_TRUE(t.insert_prefix(tenant_prefix_of(4), 16, 4));

  EXPECT_EQ(t.classify(k).match, Match::kExact);
  FlowKey cousin = k;
  cousin.src_port ^= 1;  // same /16, no exact rule
  EXPECT_EQ(t.classify(cousin).match, Match::kPrefix);
}

TEST(FlowTable, MissDefaultsToDrop) {
  FlowTable t;
  t.add_category(kMatchFullTuple, 8);
  const Decision d = t.classify(flow_key_of(9, 9));
  EXPECT_EQ(d.match, Match::kMiss);
  EXPECT_TRUE(d.drop);
  EXPECT_EQ(d.stream, dwcs::kInvalidStream);
  EXPECT_EQ(d.category, Decision::kMissCategory);
  EXPECT_EQ(t.stats().misses, 1u);
}

TEST(FlowTable, CapacityAndDuplicatesBoundInserts) {
  FlowTable t;
  const auto cat = t.add_category(kMatchFullTuple, 4);
  for (dwcs::StreamId s = 0; s < 4; ++s) {
    ASSERT_TRUE(t.insert(cat, flow_key_of(1, s), 1, s));
  }
  EXPECT_FALSE(t.insert(cat, flow_key_of(1, 100), 1, 100));  // at capacity
  EXPECT_EQ(t.installed(cat), 4u);

  FlowTable t2;
  const auto c2 = t2.add_category(kMatchFullTuple, 4);
  ASSERT_TRUE(t2.insert(c2, flow_key_of(1, 0), 1, 0));
  EXPECT_FALSE(t2.insert(c2, flow_key_of(1, 0), 1, 7));  // duplicate key
  EXPECT_EQ(t2.installed(c2), 1u);
}

TEST(FlowTable, TriePoolsAreFixedCapacity) {
  FlowTable t{{.trie_nodes = 4096, .trie_rules = 2}};
  ASSERT_TRUE(t.insert_prefix(tenant_prefix_of(1), 16, 1));
  ASSERT_TRUE(t.insert_prefix(tenant_prefix_of(2), 16, 2));
  EXPECT_FALSE(t.insert_prefix(tenant_prefix_of(3), 16, 3));  // rules full
  EXPECT_FALSE(t.insert_prefix(tenant_prefix_of(1), 16, 9));  // duplicate
  EXPECT_EQ(t.prefix_rules(), 2u);

  FlowTable tiny{{.trie_nodes = 4, .trie_rules = 16}};
  // Deep prefix needs more nodes than the pool holds.
  EXPECT_FALSE(tiny.insert_prefix(0x0A000000, 24, 1));
}

TEST(FlowTable, StatsCountProbesAndHits) {
  FlowTable t;
  const auto cat = t.add_category(kMatchFullTuple, 8);
  const FlowKey k = flow_key_of(1, 1);
  ASSERT_TRUE(t.insert(cat, k, 1, 1));
  (void)t.classify(k);
  (void)t.classify(k);
  (void)t.classify(flow_key_of(8, 8));
  const auto& s = t.stats();
  EXPECT_EQ(s.lookups, 3u);
  EXPECT_EQ(s.exact_hits, 2u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_GE(s.probes, 3u);
  EXPECT_GE(s.max_probes, 1u);
  EXPECT_EQ(t.hits(cat, k), 2u);
}

struct DemuxRig {
  sim::Engine eng;
  hw::Calibration cal;
  hw::EthernetSwitch ether{eng, cal.ethernet};
  hw::CpuModel cpu{hw::kI960Rd};
  rtos::WindKernel kernel{eng, cpu, cal.rtos};
  dvcm::StreamService svc{eng, {}, cpu, cal.ni_int, cal.ni_softfp, nullptr};
  FlowTable table;
  IngressDemux demux{eng, ether, kernel, table, svc};
  net::UdpEndpoint tx{eng, ether, net::kHostStackCost,
                      net::UdpEndpoint::Receiver{}};

  void send(TenantId tenant, dwcs::StreamId stream, std::uint32_t bytes) {
    net::Packet p;
    p.stream_id = pack_flow(tenant, stream);
    p.bytes = bytes;
    tx.send(demux.port(), p);
  }
};

TEST(IngressDemux, ExactMatchDeliversToTheRing) {
  DemuxRig rig;
  const auto cat = rig.table.add_category(kMatchFullTuple, 8);
  const auto id = rig.svc.create_stream(
      {.tolerance = {1, 4}, .period = Time::ms(10), .lossy = true}, 0);
  ASSERT_TRUE(rig.table.insert(cat, flow_key_of(1, id), 1, id));

  rig.send(1, id, 500);
  rig.send(1, id, 500);
  rig.eng.run();

  EXPECT_EQ(rig.demux.stats().received, 2u);
  EXPECT_EQ(rig.demux.stats().delivered, 2u);
  EXPECT_EQ(rig.demux.tenant_counters(1).delivered, 2u);
  EXPECT_EQ(rig.svc.scheduler().backlog(id), 2u);
}

TEST(IngressDemux, PrefixFloodIsAttributedAndDropped) {
  DemuxRig rig;
  rig.table.add_category(kMatchFullTuple, 8);
  ASSERT_TRUE(rig.table.insert_prefix(tenant_prefix_of(2), 16, 2));

  for (int i = 0; i < 5; ++i) rig.send(2, 1000 + i, 100);
  rig.send(7, 0, 100);  // nobody's address block
  rig.eng.run();

  EXPECT_EQ(rig.demux.stats().dropped_attributed, 5u);
  EXPECT_EQ(rig.demux.stats().dropped_unmatched, 1u);
  EXPECT_EQ(rig.demux.stats().delivered, 0u);
  EXPECT_EQ(rig.demux.tenant_counters(2).dropped, 5u);
}

TEST(IngressDemux, DropRuleQuarantinesOneFlow) {
  DemuxRig rig;
  const auto cat = rig.table.add_category(kMatchFullTuple, 8);
  const auto id = rig.svc.create_stream(
      {.tolerance = {1, 4}, .period = Time::ms(10), .lossy = true}, 0);
  ASSERT_TRUE(rig.table.insert(cat, flow_key_of(1, id), 1, id,
                               /*drop=*/true));

  rig.send(1, id, 100);
  rig.eng.run();

  EXPECT_EQ(rig.demux.stats().dropped_rule, 1u);
  EXPECT_EQ(rig.demux.stats().delivered, 0u);
  EXPECT_EQ(rig.svc.scheduler().backlog(id), 0u);
}

}  // namespace
}  // namespace nistream::ingress
