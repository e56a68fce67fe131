// ingress::IngressDemux — the NI's raw ingress surface.
//
// A UDP port whose receive callback feeds a classification loop on a
// dedicated wind task: every packet is looked up in the FlowTable, charged
// its classification cycles, and then either delivered into the stream
// service ring (exact match, deliver verdict), billed to a tenant and
// dropped (prefix-only match — the flood came from inside a tenant's
// address block, so the drop is attributable), or dropped unattributed
// (miss). The task runs at the LEAST urgent NI priority: unbound traffic
// competes only for leftover i960 cycles, never with the dispatch task, the
// media pumps, or even the RTSP control loop — which is exactly how a flood
// of garbage fails to move any admitted stream's violation rate (the
// ingress chaos bench's gate).
#pragma once

#include <cstdint>
#include <vector>

#include "dvcm/stream_service.hpp"
#include "hw/ethernet.hpp"
#include "ingress/flow_table.hpp"
#include "net/udp.hpp"
#include "rtos/wind.hpp"
#include "sim/coro.hpp"
#include "sim/engine.hpp"

namespace nistream::ingress {

/// Simulation packets carry their claimed (tenant, stream) identity packed
/// into Packet::stream_id; the demux never trusts it directly — it renders
/// the claim into a wire key and asks the FlowTable.
[[nodiscard]] inline std::uint64_t pack_flow(TenantId tenant,
                                             dwcs::StreamId stream) {
  return (static_cast<std::uint64_t>(tenant) << 32) | stream;
}

[[nodiscard]] inline FlowKey packet_flow_key(const net::Packet& p) {
  return flow_key_of(static_cast<TenantId>(p.stream_id >> 32),
                     static_cast<dwcs::StreamId>(p.stream_id & 0xFFFFFFFFu));
}

class IngressDemux {
 public:
  /// wind priority, the least urgent on the NI (below every spawned
  /// default): classification of unbound traffic only ever gets leftover
  /// cycles.
  static constexpr int kPriority = 200;
  /// Classification CPU per packet: a base cost plus one per table probe.
  static constexpr std::int64_t kBaseCycles = 150;
  static constexpr std::int64_t kCyclesPerProbe = 30;
  /// Per-tenant counter slots (tenant ids at or above this are folded into
  /// slot 0); sized once so the classify loop never allocates.
  static constexpr std::size_t kTenantSlots = 16;

  struct Stats {
    std::uint64_t received = 0;
    std::uint64_t delivered = 0;          // exact match, enqueued to the ring
    std::uint64_t dropped_rule = 0;       // exact match with drop verdict
    std::uint64_t dropped_attributed = 0; // prefix-only: billed to a tenant
    std::uint64_t dropped_unmatched = 0;  // miss: nobody's traffic
    std::uint64_t ring_full = 0;          // matched but the ring refused
  };

  struct TenantCounters {
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
  };

  IngressDemux(sim::Engine& engine, hw::EthernetSwitch& ether,
               rtos::WindKernel& kernel, FlowTable& table,
               dvcm::StreamService& service)
      : table_{table}, service_{service}, inbox_{engine},
        rx_{engine, ether, net::kNiStackCost,
            [this](const net::Packet& p, sim::Time) { inbox_.send(p); }},
        task_{kernel.spawn("ni-ingress", kPriority)},
        by_tenant_(kTenantSlots) {
    loop().detach();
  }

  IngressDemux(const IngressDemux&) = delete;
  IngressDemux& operator=(const IngressDemux&) = delete;

  /// The UDP port raw ingress traffic lands on.
  [[nodiscard]] int port() const { return rx_.port(); }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const TenantCounters& tenant_counters(TenantId id) const {
    return by_tenant_[id < by_tenant_.size() ? id : 0];
  }
  [[nodiscard]] std::size_t backlog() const { return inbox_.size(); }

 private:
  sim::Coro loop() {
    for (;;) {
      const net::Packet p = co_await inbox_.receive();
      ++stats_.received;
      const Decision d = table_.classify(packet_flow_key(p));
      co_await task_.consume_cycles(kBaseCycles + kCyclesPerProbe * d.probes);
      TenantCounters& tc =
          by_tenant_[d.tenant < by_tenant_.size() ? d.tenant : 0];
      switch (d.match) {
        case Match::kExact:
          if (d.drop) {
            ++stats_.dropped_rule;
            ++tc.dropped;
          } else if (service_.enqueue(d.stream, p.bytes, p.frame_type)) {
            ++stats_.delivered;
            ++tc.delivered;
          } else {
            ++stats_.ring_full;
            ++tc.dropped;
          }
          break;
        case Match::kPrefix:
          ++stats_.dropped_attributed;
          ++tc.dropped;
          break;
        case Match::kMiss:
          ++stats_.dropped_unmatched;
          break;
      }
    }
  }

  FlowTable& table_;
  dvcm::StreamService& service_;
  sim::Mailbox<net::Packet> inbox_;
  net::UdpEndpoint rx_;
  rtos::Task& task_;
  std::vector<TenantCounters> by_tenant_;
  Stats stats_;
};

}  // namespace nistream::ingress
