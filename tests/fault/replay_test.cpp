// Replay determinism: two runs of the same chaos scenario with the same seed
// must be bit-identical — same fault decisions, same charge fingerprint (NI
// CPU cycle count), same delivery and violation counters. The seed comes from
// NISTREAM_CHAOS_SEED so the CI chaos matrix can sweep it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>

#include "apps/client.hpp"
#include "apps/failover_server.hpp"
#include "fault/fault_plane.hpp"
#include "sim/engine.hpp"

namespace nistream {
namespace {

using sim::Time;

std::uint64_t chaos_seed() {
  if (const char* env = std::getenv("NISTREAM_CHAOS_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 1;
}

sim::Coro paced_producer(sim::Engine& eng, apps::FailoverMediaServer& server,
                         dwcs::StreamId id, Time phase, Time until) {
  const Time period = Time::ms(33);
  co_await sim::Delay{eng, period + phase};
  for (;;) {
    if (eng.now() >= until) co_return;
    (void)server.enqueue(id, 1000, mpeg::FrameType::kP);
    co_await sim::Delay{eng, period};
  }
}

/// Everything observable about one run, for whole-struct equality.
struct Observed {
  std::uint64_t cpu_cycles;  // NI charge stream fingerprint
  std::uint64_t faults_injected;
  std::uint64_t frames_dropped;
  std::uint64_t i2o_dropped;
  std::uint64_t disk_errors;
  std::uint64_t client_frames;
  std::uint64_t client_bytes;
  std::uint64_t violating_windows;
  std::uint64_t failovers;
  std::uint64_t failbacks;
  std::uint64_t purged;
  std::uint64_t rejected;

  bool operator==(const Observed&) const = default;
};

Observed run_chaos(std::uint64_t seed) {
  sim::Engine eng;
  hostos::HostMachine host{eng, 2};
  hw::PciBus bus{eng};
  hw::EthernetSwitch ether{eng};
  fault::FaultPlane plane{eng, fault::FaultProfile::uniform(0.02, seed)};

  apps::FailoverMediaServer::Config cfg;
  cfg.service.scheduler.deadline_from_completion = true;
  apps::FailoverMediaServer server{host, bus, ether, cfg};
  apps::MpegClient client{eng, ether};

  ether.set_fault(&plane.link());
  bus.set_fault(&plane.pci());
  server.ni().board().i2o().set_fault(&plane.i2o());
  server.ni().board().disk(0).set_fault(&plane.disk());
  server.ni().attach_health(plane.health());
  plane.health().schedule_crash(Time::sec(1), /*reboot_after=*/Time::ms(700));

  for (std::size_t i = 0; i < 6; ++i) {
    const auto id = server.create_stream(
        {.tolerance = {1, 4}, .period = Time::ms(33), .lossy = true},
        client.port());
    paced_producer(eng, server, id,
                   Time::us(700.0 * static_cast<double>(i)), Time::sec(3))
        .detach();
  }
  eng.run_until(Time::sec(3));

  const auto s = plane.summary();
  const auto m = server.metrics();
  return Observed{
      .cpu_cycles =
          static_cast<std::uint64_t>(server.ni().board().cpu().cycles()),
      .faults_injected = s.total(),
      .frames_dropped = s.frames_dropped,
      .i2o_dropped = s.i2o_inbound_dropped + s.i2o_outbound_dropped,
      .disk_errors = s.disk_read_errors,
      .client_frames = client.total_frames(),
      .client_bytes = client.total_bytes(),
      .violating_windows = server.monitor().total_violating_windows(),
      .failovers = m.failovers,
      .failbacks = m.failbacks,
      .purged = m.frames_purged,
      .rejected = m.frames_rejected,
  };
}

TEST(Replay, SameSeedSameChargeFingerprint) {
  const auto seed = chaos_seed();
  const auto a = run_chaos(seed);
  const auto b = run_chaos(seed);
  EXPECT_EQ(a, b);

  // Sanity: the scenario actually exercised the fault plane and failover —
  // a trivially idle run would be trivially deterministic.
  EXPECT_GT(a.faults_injected, 0u);
  EXPECT_EQ(a.failovers, 1u);
  EXPECT_EQ(a.failbacks, 1u);
  EXPECT_GT(a.client_frames, 0u);
  EXPECT_GT(a.cpu_cycles, 0u);
}

TEST(Replay, DifferentSeedsDiverge) {
  const auto seed = chaos_seed();
  const auto a = run_chaos(seed);
  const auto b = run_chaos(seed + 1);
  // The fault decision sequence is seed-driven; a different seed lands
  // faults on different frames.
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace nistream
