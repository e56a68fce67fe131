// Ingress chaos sweep: multi-tenant flood isolation at the NI front door,
// measured end to end.
//
// Every cell boots a full multi-tenant SessionServer (RTSP front door with
// per-tenant admission budgets, (scope, stream) violation monitoring) plus
// an IngressDemux raw-packet surface on the same simulated i960, then runs
// the same victim fleet twice:
//
//  * baseline — every tenant runs a polite fleet sized inside its admission
//               share. No raw traffic touches the demux port.
//  * flood    — the FIRST tenant on the --tenants list turns hostile: it
//               fires 10x its admission budget in SETUPs at the control
//               plane AND sprays raw packets (half from inside its /16 —
//               attributable; half from nobody's address block) at the
//               demux port for the whole storm window. The victim tenants'
//               fleets are byte-identical to the baseline (per-client seeds
//               are a function of (tenant, index) only).
//
// The gate IS the paper's claim at tenant granularity: flood isolation.
//  * every victim tenant's max per-stream violation rate in the flood run
//    stays within noise (+0.02) of its flood-free baseline;
//  * every victim stream admitted in the baseline is admitted in the flood
//    (the flooder exhausts only its OWN budget: tenant_rejected_453 > 0);
//  * the demux accounts for every raw packet (received == sum of verdicts,
//    attributed and unmatched drops both nonzero) and delivers none of the
//    garbage;
//  * both runs replay bit-identically from their seeds (FNV fingerprints
//    over every client outcome and every server/demux counter).
// The binary exits nonzero when any property fails, so CI can gate on it.
//
// Reproducible from the command line:
//   ingress_chaos_sweep [out.json] [--seed=u64] [--jobs=N] [--smoke]
//                       [--tenants=alpha,beta]
// bench/runner.hpp runs the cells in parallel under --jobs and keeps the
// JSON byte-identical for any job count; --smoke shrinks the fleets for CI.
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "apps/client.hpp"
#include "ingress/demux.hpp"
#include "runner.hpp"
#include "session/client.hpp"
#include "session/server.hpp"

using namespace nistream;

namespace {

constexpr sim::Time kStormWindow = sim::Time::sec(1);
constexpr sim::Time kRunFor = sim::Time::sec(20);
constexpr sim::Time kFramePeriod = sim::Time::ms(10);

// Mirrors the SessionServer defaults (per_frame_cpu 120us, headroom 0.90):
// the CPU budget binds well before the link at 10 ms periods, so a tenant
// with share s admits about s * 0.90 / 0.012 streams.
constexpr double kCpuLoadPerStream = 120e-6 / 10e-3;
constexpr double kHeadroom = 0.90;

struct TenantOutcome {
  std::string name;
  std::uint32_t scope = 0;
  std::uint64_t clients = 0;
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;
  double scope_max_violation_rate = 0;
  double scope_aggregate_violation_rate = 0;
  std::uint64_t scope_violating_streams = 0;
};

struct FleetResult {
  std::uint64_t fingerprint = 0;
  session::RtspFrontDoor::Stats door;
  ingress::IngressDemux::Stats demux;
  std::uint64_t attributed_to_flooder = 0;
  std::uint64_t responded = 0;
  std::uint64_t frames_delivered = 0;
  std::vector<TenantOutcome> tenants;  // index 0 = flooder
};

struct CellSpec {
  const char* label;
  const std::vector<std::string>* tenants;  // index 0 = flooder
  std::size_t victim_n;       // polite clients per tenant
  std::size_t flood_setups;   // extra flooder SETUPs in the flood half
  std::size_t flood_packets;  // raw packets at the demux in the flood half
};

/// One half of a cell: the victims alone, or with `flood` the victims plus
/// the flooder's SETUPs and raw packets.
FleetResult run_fleet(const CellSpec& spec, bool flood, std::uint64_t seed) {
  FleetResult r;
  const auto& names = *spec.tenants;
  const std::size_t flood_setups = flood ? spec.flood_setups : 0;
  const std::size_t flood_packets = flood ? spec.flood_packets : 0;
  sim::Engine eng;
  hw::EthernetSwitch ether{eng};

  session::SessionServer::Config cfg;
  cfg.door.idle_timeout = sim::Time::ms(500);
  cfg.door.reap_interval = sim::Time::ms(125);
  const double share = 1.0 / static_cast<double>(names.size());
  for (const auto& name : names) {
    cfg.tenants.emplace_back(
        name, ingress::TenantBudget{.link_share = share, .cpu_share = share});
  }
  session::SessionServer server{eng, ether, cfg};

  // Raw ingress surface: the flooder's /16 is attributable (and dropped);
  // everything else the trie does not know is dropped unattributed. No
  // exact rules — admitted media rides the RTSP-established path, not the
  // raw port, so any delivery here would itself be a leak.
  const ingress::TenantId flooder = server.tenants().resolve(names[0]);
  ingress::FlowTable table{{.trie_nodes = 64, .trie_rules = 4}};
  table.add_category(ingress::kMatchFullTuple, 8);
  if (!table.insert_prefix(ingress::tenant_prefix_of(flooder), 16, flooder)) {
    std::fprintf(stderr, "flood prefix install failed\n");
    std::exit(1);
  }
  ingress::IngressDemux demux{eng, ether, server.kernel(), table,
                              server.service()};

  apps::MpegClient media{eng, ether};
  std::uint64_t rtcp_reports = 0;
  net::UdpEndpoint rtcp_sink{eng, ether, net::kHostStackCost,
                             [&rtcp_reports](const net::Packet&, sim::Time) {
                               ++rtcp_reports;
                             }};

  // Per-client seeds are a pure function of (tenant index, client index) and
  // the master seed, so the victim fleets are identical between the baseline
  // and flood runs of a cell — the comparison is apples to apples.
  const auto window_us = static_cast<std::uint64_t>(kStormWindow.to_us());
  const auto client_cfg = [&](std::size_t tenant_idx, std::size_t i) {
    std::uint64_t s = seed ^ (static_cast<std::uint64_t>(tenant_idx) << 40) ^ i;
    s = bench::splitmix64(s);  // a hash chain: each output seeds the next
    session::RtspChurnClient::Config c;
    c.arrival = sim::Time::us(static_cast<double>(s % window_us));
    c.frames = 4 + bench::splitmix64(s) % 8;
    c.period = kFramePeriod;
    c.uri = "rtsp://ni/" + names[tenant_idx] + "/s" + std::to_string(i);
    return c;
  };
  // Each client borrows its config, so the configs live in a vector
  // reserved to the fleet's size and outlive the clients.
  std::vector<session::RtspChurnClient::Config> configs;
  configs.reserve(names.size() * spec.victim_n + flood_setups);
  std::vector<std::unique_ptr<session::RtspChurnClient>> clients;
  std::vector<std::size_t> owner;  // tenant index per client
  const auto spawn = [&](std::size_t tenant_idx, std::size_t count,
                         std::size_t index_base) {
    for (std::size_t i = 0; i < count; ++i) {
      assert(configs.size() < configs.capacity());  // no reallocation
      configs.push_back(client_cfg(tenant_idx, index_base + i));
      clients.push_back(std::make_unique<session::RtspChurnClient>(
          eng, ether, server.control_port(), media, rtcp_sink.port(),
          configs.back()));
      owner.push_back(tenant_idx);
      clients.back()->start();
    }
  };
  for (std::size_t t = 0; t < names.size(); ++t) spawn(t, spec.victim_n, 0);
  // The control-plane flood: 10x-budget SETUPs, distinct stream URIs so
  // every one is a fresh admission decision against the flooder's share.
  spawn(0, flood_setups, spec.victim_n);

  // The data-plane flood: raw packets spread across the storm window,
  // alternating between the flooder's address block and nobody's.
  auto raw_flood = [&eng, &demux](net::UdpEndpoint& tx, std::size_t packets,
                                  ingress::TenantId from,
                                  std::uint64_t rng) -> sim::Coro {
    const double gap_us = kStormWindow.to_us() / static_cast<double>(packets);
    for (std::size_t i = 0; i < packets; ++i) {
      co_await sim::Delay{eng, sim::Time::us(gap_us)};
      net::Packet p;
      rng = bench::splitmix64(rng);
      p.stream_id = i % 2 == 0
                        ? ingress::pack_flow(from, 1 << 20 | (rng & 0xFFFF))
                        : ingress::pack_flow(99, rng & 0xFFFF);
      p.bytes = 200;
      tx.send(demux.port(), p);
    }
  };
  net::UdpEndpoint flood_tx{eng, ether, net::kHostStackCost,
                            net::UdpEndpoint::Receiver{}};
  if (flood_packets > 0) {
    std::uint64_t flood_seed = seed ^ 0xF10;
    raw_flood(flood_tx, flood_packets, flooder,
              bench::splitmix64(flood_seed))
        .detach();
  }

  eng.run_until(kRunFor);

  bench::Fingerprint fp;
  r.tenants.resize(names.size());
  for (std::size_t t = 0; t < names.size(); ++t) {
    r.tenants[t].name = names[t];
    r.tenants[t].scope = server.tenants().resolve(names[t]);
  }
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const auto& o = clients[i]->outcome();
    auto& tn = r.tenants[owner[i]];
    ++tn.clients;
    if (o.responded_setup) ++r.responded;
    if (o.admitted) ++tn.admitted;
    if (o.completed) ++tn.completed;
    fp.add(static_cast<std::uint64_t>(o.setup_status));
    fp.add(o.admitted ? 1 : 0);
    fp.add(o.completed ? 1 : 0);
    fp.add(o.cseq_errors);
  }
  for (auto& tn : r.tenants) {
    const auto& mon = server.monitor();
    tn.scope_max_violation_rate = mon.scope_max_violation_rate(tn.scope);
    tn.scope_aggregate_violation_rate =
        mon.scope_aggregate_violation_rate(tn.scope);
    tn.scope_violating_streams = mon.scope_violating_streams(tn.scope);
    fp.add(tn.admitted);
    fp.add(tn.completed);
    fp.add(tn.scope_violating_streams);
    fp.add_double(tn.scope_max_violation_rate);
    fp.add_double(tn.scope_aggregate_violation_rate);
  }

  r.door = server.door().stats();
  r.demux = demux.stats();
  r.attributed_to_flooder = demux.tenant_counters(flooder).dropped;
  r.frames_delivered = media.total_frames();
  for (const std::uint64_t v :
       {r.door.requests, r.door.setups_ok, r.door.rejected_453,
        r.door.tenant_rejected_453, r.door.plays, r.door.teardowns,
        r.door.reaped_idle, r.door.eos, r.door.frames_pumped,
        r.door.post_play_admission_violations, r.demux.received,
        r.demux.delivered, r.demux.dropped_rule, r.demux.dropped_attributed,
        r.demux.dropped_unmatched, r.demux.ring_full, r.attributed_to_flooder,
        r.frames_delivered, rtcp_reports}) {
    fp.add(v);
  }
  r.fingerprint = fp.h;
  return r;
}

struct CellResult {
  CellSpec spec{};
  FleetResult baseline;
  FleetResult flood;
};

CellResult run_cell(const CellSpec& spec, std::uint64_t seed) {
  return {spec, run_fleet(spec, false, seed), run_fleet(spec, true, seed)};
}

/// Both halves rerun from the same seed must fingerprint identically, or
/// the ingress plane leaked nondeterminism.
std::uint64_t replay_print(const CellResult& r) {
  bench::Fingerprint fp;
  fp.add(r.baseline.fingerprint);
  fp.add(r.flood.fingerprint);
  return fp.h;
}

void check(const CellResult& r, bench::Verdict& v) {
  if (r.flood.door.tenant_rejected_453 == 0) {
    v.fail("flooder never hit its tenant budget");
  }
  if (r.flood.door.post_play_admission_violations != 0 ||
      r.baseline.door.post_play_admission_violations != 0) {
    v.fail("admission decided after PLAY");
  }
  const std::size_t total_clients =
      r.spec.tenants->size() * r.spec.victim_n + r.spec.flood_setups;
  if (r.flood.responded != total_clients) {
    v.fail("control plane dropped SETUPs under flood");
  }
  // The headline gate: no victim scope's max per-stream violation rate may
  // move beyond noise relative to its own flood-free baseline, and every
  // victim stream admitted without the flood is admitted with it.
  for (std::size_t t = 1; t < r.flood.tenants.size(); ++t) {
    const auto& b = r.baseline.tenants[t];
    const auto& f = r.flood.tenants[t];
    if (f.scope_max_violation_rate > b.scope_max_violation_rate + 0.02) {
      v.fail("victim " + f.name + " max violation rate " +
             std::to_string(f.scope_max_violation_rate) + " vs baseline " +
             std::to_string(b.scope_max_violation_rate));
    }
    if (f.admitted != b.admitted) {
      v.fail("victim " + f.name + " admissions moved under flood (" +
             std::to_string(f.admitted) + " vs " +
             std::to_string(b.admitted) + ")");
    }
  }
  const auto& d = r.flood.demux;
  if (d.received != d.delivered + d.dropped_rule + d.dropped_attributed +
                        d.dropped_unmatched + d.ring_full) {
    v.fail("demux lost packets (accounting mismatch)");
  }
  if (d.received != r.spec.flood_packets) {
    v.fail("raw flood not fully received");
  }
  if (d.delivered != 0) v.fail("raw garbage reached a stream ring");
  if (r.spec.flood_packets > 0 &&
      (d.dropped_attributed == 0 || d.dropped_unmatched == 0)) {
    v.fail("flood drops not split attributed/unmatched");
  }
  if (r.baseline.demux.received != 0) v.fail("baseline saw raw traffic");
  if (r.flood.frames_delivered == 0) v.fail("no media delivered at all");
}

void write_fleet(bench::Json& j, const FleetResult& f) {
  j.u("setups_ok", f.door.setups_ok).u("rejected_453", f.door.rejected_453)
      .u("tenant_rejected_453", f.door.tenant_rejected_453)
      .u("reaped_idle", f.door.reaped_idle)
      .u("frames_delivered", f.frames_delivered);
  j.wrap(6).object("demux", [&](bench::Json& d) {
    d.u("received", f.demux.received).u("delivered", f.demux.delivered)
        .u("dropped_attributed", f.demux.dropped_attributed)
        .u("dropped_unmatched", f.demux.dropped_unmatched)
        .u("attributed_to_flooder", f.attributed_to_flooder);
  });
  const auto tenant = [&](std::size_t t, bench::Json& o) {
    const auto& tn = f.tenants[t];
    o.s("name", tn.name).u("scope", tn.scope).u("clients", tn.clients)
        .u("admitted", tn.admitted).u("completed", tn.completed)
        .f("scope_max_violation_rate", tn.scope_max_violation_rate, 4)
        .f("scope_aggregate_violation_rate",
           tn.scope_aggregate_violation_rate, 6)
        .u("scope_violating_streams", tn.scope_violating_streams);
  };
  j.wrap(6).list("tenants", f.tenants.size(), 7, 6, tenant);
}

void write_cell(bench::Json& j, const CellResult& c, const bench::Verdict& v) {
  j.s("cell", c.spec.label).u("victims_per_tenant", c.spec.victim_n)
      .u("flood_setups", c.spec.flood_setups)
      .u("flood_packets", c.spec.flood_packets)
      .b("replay_identical", v.replay_identical).verdict(v);
  j.wrap(5).object("baseline",
                   [&](bench::Json& f) { write_fleet(f, c.baseline); });
  j.wrap(5).object("flood", [&](bench::Json& f) { write_fleet(f, c.flood); });
}

}  // namespace

int main(int argc, char** argv) {
  bench::Sweep sweep{argc, argv, "ingress_chaos_sweep", "BENCH_ingress.json",
                     0x16E55};
  const std::vector<std::string> tenant_names =
      bench::flag_str_list(argc, argv, "tenants", "alpha,beta,gamma");
  if (tenant_names.size() < 2) {
    std::fprintf(stderr,
                 "--tenants needs at least a flooder and one victim\n");
    return 2;
  }

  // Per-tenant admission capacity in streams, from the server defaults.
  const double share = 1.0 / static_cast<double>(tenant_names.size());
  const auto capacity = static_cast<std::size_t>(share * kHeadroom /
                                                 kCpuLoadPerStream);
  if (capacity < 3) {  // the near-capacity cell runs capacity - 2 victims
    std::fprintf(stderr, "--tenants: too many tenants for one board\n");
    return 2;
  }
  const std::size_t flood_setups = 10 * capacity;
  const auto cell = [&](const char* label, std::size_t victim_n,
                        std::size_t flood_packets) {
    return CellSpec{label, &tenant_names, victim_n, flood_setups,
                    flood_packets};
  };
  const std::vector<CellSpec> specs =
      sweep.smoke ? std::vector<CellSpec>{cell("light", capacity / 2, 1'000)}
                  : std::vector<CellSpec>{
                        cell("light", capacity / 2, 4'000),
                        cell("near-capacity", capacity - 2, 8'000)};

  return sweep.run(bench::Plan<CellSpec, CellResult>{
      .title = "ingress chaos sweep: " + std::to_string(tenant_names.size()) +
               " tenants (flooder=" + tenant_names[0] +
               "), capacity=" + std::to_string(capacity) + " streams/tenant",
      .cells = specs,
      .coord = [](const CellSpec& s) {
        return std::uint64_t{s.victim_n * 8191 + s.flood_packets};
      },
      .run = run_cell,
      .replay = replay_print,
      .gates = check,
      .header = [&](bench::Json& j) {
        j.strings("tenants", tenant_names).s("flooder", tenant_names[0]);
      },
      .fields = write_cell,
      .columns = {"cell", "victims_per_tenant", "flood.tenant_rejected_453",
                  "flood.demux.dropped_attributed",
                  "flood.demux.dropped_unmatched", "replay_identical", "ok"},
  });
}
