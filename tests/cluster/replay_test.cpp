// Replay determinism for the cluster control plane: two same-seed runs of a
// scenario with a scripted crash + reboot must produce bit-identical charge
// fingerprints — same per-board CPU cycle counts, same migration and
// drain-back counts, same delivery and violation counters. Two scenarios:
// three NIs that fail over to each other, and one NI under a fault plane
// (link, PCI, I2O and disk faults) that fails over to the host. The seed
// comes from NISTREAM_CHAOS_SEED so the CI chaos matrix can sweep it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "apps/client.hpp"
#include "cluster/control_plane.hpp"
#include "fault/board_health.hpp"
#include "fault/fault_plane.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"

namespace nistream::cluster {
namespace {

using sim::Time;

std::uint64_t chaos_seed() {
  if (const char* env = std::getenv("NISTREAM_CHAOS_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 1;
}

/// Paced producer with seed-jittered frame sizes: the seed is the only
/// source of variation, so it is what two runs must agree on.
sim::Coro jittered_producer(sim::Engine& eng, ClusterControlPlane& plane,
                            GlobalStreamId id, std::uint64_t seed, Time phase,
                            Time until) {
  const Time period = Time::ms(33);
  sim::Rng rng{seed};
  co_await sim::Delay{eng, period + phase};
  for (;;) {
    if (eng.now() >= until) co_return;
    const auto bytes = static_cast<std::uint32_t>(
        std::max(128.0, rng.normal(1000.0, 150.0)));
    (void)plane.enqueue(id, bytes, mpeg::FrameType::kP);
    co_await sim::Delay{eng, period};
  }
}

/// Everything observable about one run, for whole-struct equality.
struct Observed {
  std::uint64_t board_cycles[3];
  std::uint64_t faults_injected;
  std::uint64_t client_frames;
  std::uint64_t client_bytes;
  std::uint64_t violating_windows;
  std::uint64_t failovers;
  std::uint64_t failbacks;
  std::uint64_t migrations_completed;
  std::uint64_t drainbacks_completed;
  std::uint64_t host_takeovers;
  std::uint64_t purged;
  std::uint64_t rejected;

  bool operator==(const Observed&) const = default;
};

/// Six jittered streams for 3 s through `plane`, then everything observable.
Observed play(sim::Engine& eng, ClusterControlPlane& plane, int boards,
              const apps::MpegClient& client, std::uint64_t seed) {
  for (std::size_t i = 0; i < 6; ++i) {
    const auto id = plane.open_stream(
        {.tolerance = {1, 4}, .period = Time::ms(33), .lossy = true}, 1000,
        client.port());
    jittered_producer(eng, plane, *id, seed ^ (0x9E3779B9u * (i + 1)),
                      Time::us(700.0 * static_cast<double>(i)), Time::sec(3))
        .detach();
  }
  eng.run_until(Time::sec(3));

  const auto& m = plane.metrics();
  Observed f{};
  for (int b = 0; b < boards; ++b) {
    f.board_cycles[b] = static_cast<std::uint64_t>(
        plane.ni(b).board().cpu().cycles());
  }
  f.client_frames = client.total_frames();
  f.client_bytes = client.total_bytes();
  f.violating_windows = plane.monitor().total_violating_windows();
  f.failovers = m.failovers;
  f.failbacks = m.failbacks;
  f.migrations_completed = m.migrations_completed;
  f.drainbacks_completed = m.drainbacks_completed;
  f.host_takeovers = m.host_takeover_streams;
  f.purged = m.frames_purged;
  f.rejected = m.frames_rejected;
  return f;
}

ClusterControlPlane::Config config(int boards) {
  ClusterControlPlane::Config cfg;
  cfg.boards = boards;
  cfg.service.scheduler.deadline_from_completion = true;
  return cfg;
}

Observed run_cluster_chaos(std::uint64_t seed) {
  sim::Engine eng;
  hostos::HostMachine host{eng, 2};
  hw::EthernetSwitch ether{eng};
  apps::MpegClient client{eng, ether};
  ClusterControlPlane plane{host, ether, config(3)};

  std::vector<std::unique_ptr<fault::BoardHealth>> health;
  for (int b = 0; b < 3; ++b) {
    health.push_back(std::make_unique<fault::BoardHealth>(eng));
    plane.attach_health(b, *health.back());
  }
  health[0]->schedule_crash(Time::sec(1), /*reboot_after=*/Time::ms(800));
  return play(eng, plane, 3, client, seed);
}

/// One board under a 2% fault plane on every layer the frames and the
/// drain-back shipments cross, crashed at 1 s and rebooted 700 ms later.
Observed run_one_board_chaos(std::uint64_t seed) {
  sim::Engine eng;
  hostos::HostMachine host{eng, 2};
  hw::EthernetSwitch ether{eng};
  apps::MpegClient client{eng, ether};
  fault::FaultPlane faults{eng, fault::FaultProfile::uniform(0.02, seed)};
  ClusterControlPlane plane{host, ether, config(1)};

  hw::NicBoard& board = plane.ni(0).board();
  ether.set_fault(&faults.link());
  board.bus().set_fault(&faults.pci());
  board.i2o().set_fault(&faults.i2o());
  board.disk(0).set_fault(&faults.disk());
  plane.attach_health(0, faults.health());
  faults.health().schedule_crash(Time::sec(1), /*reboot_after=*/Time::ms(700));

  Observed f = play(eng, plane, 1, client, seed);
  f.faults_injected = faults.summary().total();
  return f;
}

TEST(ClusterReplay, SameSeedSameChargeFingerprint) {
  const auto seed = chaos_seed();
  const auto a = run_cluster_chaos(seed);
  const auto b = run_cluster_chaos(seed);
  EXPECT_EQ(a, b);

  // Sanity: the scenario exercised the full failover + fail-back cycle on
  // sibling NIs, never the host.
  EXPECT_EQ(a.failovers, 1u);
  EXPECT_EQ(a.failbacks, 1u);
  EXPECT_EQ(a.migrations_completed, 2u);
  EXPECT_EQ(a.drainbacks_completed, 2u);
  EXPECT_EQ(a.host_takeovers, 0u);
  EXPECT_GT(a.client_frames, 0u);
  EXPECT_GT(a.board_cycles[0], 0u);
  EXPECT_GT(a.board_cycles[1], 0u);
}

TEST(ClusterReplay, DifferentSeedsDiverge) {
  const auto seed = chaos_seed();
  const auto a = run_cluster_chaos(seed);
  const auto b = run_cluster_chaos(seed + 1);
  // Frame sizes are seed-driven; different seeds change the byte stream
  // (and through it the charge fingerprint).
  EXPECT_NE(a, b);
}

TEST(ClusterReplay, OneBoardUnderFaultsSameSeedSameChargeFingerprint) {
  const auto seed = chaos_seed();
  const auto a = run_one_board_chaos(seed);
  const auto b = run_one_board_chaos(seed);
  EXPECT_EQ(a, b);

  // Sanity: the scenario exercised the fault plane and the one-board cycle —
  // every stream to the host and home again over the lossy link.
  EXPECT_GT(a.faults_injected, 0u);
  EXPECT_EQ(a.failovers, 1u);
  EXPECT_EQ(a.failbacks, 1u);
  EXPECT_EQ(a.host_takeovers, 6u);
  EXPECT_EQ(a.drainbacks_completed, 6u);
  EXPECT_GT(a.client_frames, 0u);
  EXPECT_GT(a.board_cycles[0], 0u);
}

TEST(ClusterReplay, OneBoardUnderFaultsDifferentSeedsDiverge) {
  const auto seed = chaos_seed();
  const auto a = run_one_board_chaos(seed);
  const auto b = run_one_board_chaos(seed + 1);
  // The fault decisions and frame sizes are seed-driven; a different seed
  // lands faults on different frames.
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace nistream::cluster
