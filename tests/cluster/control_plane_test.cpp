// Cluster control plane choreography: board crash -> watchdog trip ->
// checkpoint shipping to sibling NIs -> capacity-aware mass re-admission
// (host only as last resort) -> fail-back drain when the board reboots.
// The OneBoard cases run the same plane with no sibling: single-board
// failover, where every stream spills to the host and drains home. Plus the
// monitor-scope keying that keeps a re-admitted stream's QoS counters from
// aliasing its pre-crash life.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "apps/client.hpp"
#include "cluster/control_plane.hpp"
#include "fault/board_health.hpp"
#include "sim/engine.hpp"

namespace nistream::cluster {
namespace {

using sim::Time;

constexpr Time kPeriod = Time::ms(33);
constexpr dwcs::StreamParams kParams{
    .tolerance = {1, 4}, .period = kPeriod, .lossy = true};

ClusterControlPlane::Config make_config(int boards, Time per_frame_cpu) {
  ClusterControlPlane::Config c;
  c.boards = boards;
  c.service.scheduler.deadline_from_completion = true;
  c.per_frame_cpu = per_frame_cpu;
  return c;
}

/// Timer-paced producer through the plane's router; no retry — a refused
/// frame is a loss the monitor records.
sim::Coro paced_producer(sim::Engine& eng, ClusterControlPlane& plane,
                         GlobalStreamId id, Time phase, Time until) {
  co_await sim::Delay{eng, kPeriod + phase};
  for (;;) {
    if (eng.now() >= until) co_return;
    (void)plane.enqueue(id, 1000, mpeg::FrameType::kP);
    co_await sim::Delay{eng, kPeriod};
  }
}

struct Rig {
  sim::Engine eng;
  hostos::HostMachine host{eng, 2};
  hw::EthernetSwitch ether{eng};
  apps::MpegClient client{eng, ether};
  ClusterControlPlane plane;
  std::vector<std::unique_ptr<fault::BoardHealth>> health;

  explicit Rig(int boards, Time per_frame_cpu = Time::us(130))
      : plane{host, ether, make_config(boards, per_frame_cpu)} {
    for (int b = 0; b < boards; ++b) {
      health.push_back(std::make_unique<fault::BoardHealth>(eng));
      plane.attach_health(b, *health.back());
    }
  }

  GlobalStreamId add_stream(std::size_t i, Time until) {
    const auto id = plane.open_stream(kParams, 1000, client.port());
    EXPECT_TRUE(id.has_value());
    paced_producer(eng, plane, *id, Time::us(700.0 * static_cast<double>(i)),
                   until)
        .detach();
    return *id;
  }
};

TEST(ClusterFailover, OpenStreamSpreadsLeastLoadedDeterministically) {
  Rig rig{3};
  for (std::size_t i = 0; i < 6; ++i) rig.add_stream(i, Time::ms(1));
  // Equal loads tie to the lowest board: round-robin 0,1,2,0,1,2.
  for (GlobalStreamId g = 0; g < 6; ++g) {
    EXPECT_EQ(rig.plane.registry().record(g).where.board,
              static_cast<int>(g % 3));
  }
  EXPECT_EQ(rig.plane.admission(0).admitted(), 2u);
  EXPECT_EQ(rig.plane.admission(1).admitted(), 2u);
  EXPECT_EQ(rig.plane.admission(2).admitted(), 2u);
}

TEST(ClusterFailover, SiblingsAdoptEveryStreamWhileTheyHaveHeadroom) {
  Rig rig{3};
  for (std::size_t i = 0; i < 6; ++i) rig.add_stream(i, Time::sec(4));
  rig.health[0]->schedule_crash(Time::sec(1));  // stays dead
  rig.eng.run_until(Time::sec(4));

  const auto& m = rig.plane.metrics();
  EXPECT_EQ(m.failovers, 1u);
  EXPECT_EQ(rig.plane.watchdog(0).trips(), 1u);
  EXPECT_FALSE(rig.plane.board_serving(0));
  // Siblings had headroom, so nothing fell to the host.
  EXPECT_EQ(m.host_takeover_streams, 0u);
  EXPECT_EQ(rig.plane.host_server(), nullptr);
  // Board 0 held streams 0 and 3; both migrated to siblings.
  EXPECT_EQ(m.migrations_started, 2u);
  EXPECT_EQ(m.migrations_completed, 2u);
  for (const GlobalStreamId g : {0u, 3u}) {
    const auto& rec = rig.plane.registry().record(g);
    EXPECT_TRUE(rec.where.placed());
    EXPECT_NE(rec.where.board, 0);
    EXPECT_FALSE(rec.where.on_host());
    EXPECT_EQ(rec.migrations, 1u);
  }
  // Detection within the watchdog bound, re-admission within 2x the
  // single-board failover latency (the PR acceptance bound).
  EXPECT_GT(m.failover_latency_ms, 0.0);
  EXPECT_LT(m.failover_latency_ms, 502.0);
  EXPECT_GE(m.readmission_complete_ms, m.failover_latency_ms);
  EXPECT_LT(m.readmission_complete_ms, 502.0);
  // The tap kept running end to end.
  EXPECT_GT(rig.client.total_frames(), 300u);
}

TEST(ClusterFailover, SpillsToHostOnlyTheStreamsNoSiblingCanHold) {
  // per_frame_cpu 6.6 ms at a 33 ms period = 0.2 CPU per stream, so a
  // board holds 4 streams under the 0.9 headroom. Place 7: board 0 takes
  // 4, board 1 takes 3 (ties go low).
  Rig rig{2, /*per_frame_cpu=*/Time::us(6600)};
  for (std::size_t i = 0; i < 7; ++i) rig.add_stream(i, Time::sec(3));
  EXPECT_EQ(rig.plane.admission(0).admitted(), 4u);
  EXPECT_EQ(rig.plane.admission(1).admitted(), 3u);

  rig.health[0]->schedule_crash(Time::sec(1));  // stays dead
  rig.eng.run_until(Time::sec(3));

  // Board 1 had room for exactly one more; the other three victims are
  // kept alive by the host scheduler — the last resort, not the default.
  const auto& m = rig.plane.metrics();
  EXPECT_EQ(m.failovers, 1u);
  EXPECT_EQ(m.migrations_completed, 1u);
  EXPECT_EQ(m.host_takeover_streams, 3u);
  ASSERT_NE(rig.plane.host_server(), nullptr);
  EXPECT_EQ(rig.plane.host_server()->service().scheduler().stream_count(), 3u);
  EXPECT_EQ(rig.plane.admission(1).admitted(), 4u);

  int on_host = 0;
  for (const auto& rec : rig.plane.registry().records()) {
    if (rec.where.on_host()) ++on_host;
  }
  EXPECT_EQ(on_host, 3);
  EXPECT_GT(rig.client.total_frames(), 200u);
}

TEST(ClusterFailover, FailBackDrainsMigratedStreamsHomeUnderOriginalIds) {
  Rig rig{3};
  for (std::size_t i = 0; i < 6; ++i) rig.add_stream(i, Time::sec(5));
  rig.health[0]->schedule_crash(Time::sec(1), /*reboot_after=*/Time::ms(800));
  rig.eng.run_until(Time::sec(5));

  const auto& m = rig.plane.metrics();
  EXPECT_EQ(m.failovers, 1u);
  EXPECT_EQ(m.failbacks, 1u);
  EXPECT_EQ(rig.plane.watchdog(0).recoveries(), 1u);
  EXPECT_TRUE(rig.plane.board_serving(0));
  EXPECT_EQ(m.drainbacks_started, 2u);
  EXPECT_EQ(m.drainbacks_completed, 2u);
  EXPECT_GT(m.recovery_time_ms, m.failover_latency_ms);

  // Streams 0 and 3 are home, under their original local ids, placed under
  // the post-reboot incarnation.
  EXPECT_EQ(rig.health[0]->incarnation(), 1u);
  for (const GlobalStreamId g : {0u, 3u}) {
    const auto& rec = rig.plane.registry().record(g);
    EXPECT_EQ(rec.where.board, 0);
    EXPECT_EQ(rec.where.local, rec.home_local);
    EXPECT_EQ(rec.where.incarnation, 1u);
    EXPECT_EQ(rec.migrations, 2u);  // out and back
  }
  // The refuge boards released their failover reservations.
  EXPECT_EQ(rig.plane.admission(0).admitted(), 2u);
  EXPECT_EQ(rig.plane.admission(1).admitted(), 2u);
  EXPECT_EQ(rig.plane.admission(2).admitted(), 2u);
  EXPECT_GT(rig.client.total_frames(), 400u);
}

TEST(ClusterFailover, AdmissionDuringFailoverAvoidsTheDeadBoard) {
  Rig rig{3};
  std::vector<GlobalStreamId> ids;
  for (std::size_t i = 0; i < 6; ++i) ids.push_back(rig.add_stream(i, Time::sec(4)));
  rig.health[0]->schedule_crash(Time::sec(1));  // stays dead

  // Between death and the watchdog trip, enqueues to board-0 streams are
  // refused (dead board) and charged as drops.
  rig.eng.run_until(Time::ms(1050));
  const auto rejected_before = rig.plane.metrics().frames_rejected;
  EXPECT_FALSE(rig.plane.enqueue(ids[0], 1000, mpeg::FrameType::kP));
  EXPECT_EQ(rig.plane.metrics().frames_rejected, rejected_before + 1);

  // After the trip, fresh admissions land on serving boards only.
  rig.eng.run_until(Time::ms(1700));
  ASSERT_FALSE(rig.plane.board_serving(0));
  const auto fresh = rig.plane.open_stream(kParams, 1000, rig.client.port());
  ASSERT_TRUE(fresh.has_value());
  const auto& rec = rig.plane.registry().record(*fresh);
  EXPECT_NE(rec.where.board, 0);
  EXPECT_TRUE(rig.plane.board_serving(rec.where.board));
  rig.eng.run_until(Time::sec(4));
  EXPECT_EQ(rig.plane.metrics().failovers, 1u);
}

TEST(ClusterFailover, RebootStartsAFreshMonitorScopeAndFreezesTheOldOne) {
  Rig rig{3};
  for (std::size_t i = 0; i < 6; ++i) rig.add_stream(i, Time::sec(5));
  rig.health[0]->schedule_crash(Time::sec(1), /*reboot_after=*/Time::ms(800));
  rig.eng.run_until(Time::sec(3));

  const auto& rec = rig.plane.registry().record(0);
  ASSERT_EQ(rec.where.board, 0);          // drained home by now
  ASSERT_EQ(rec.history.size(), 2u);      // pre-crash home + refuge
  const dwcs::WindowViolationMonitor::StreamKey pre_crash{
      rec.history[0].monitor_scope, rec.history[0].local};
  const dwcs::WindowViolationMonitor::StreamKey current{
      rec.where.monitor_scope, rec.where.local};
  // Same board, same local id — different incarnation, different key.
  EXPECT_EQ(rec.history[0].local, rec.where.local);
  EXPECT_NE(rec.history[0].monitor_scope, rec.where.monitor_scope);

  // The dead placement's counters are frozen; the live one keeps counting.
  const auto frozen = rig.plane.monitor().packets(pre_crash);
  const auto live_at_3s = rig.plane.monitor().packets(current);
  rig.eng.run_until(Time::sec(5));
  EXPECT_EQ(rig.plane.monitor().packets(pre_crash), frozen);
  EXPECT_GT(rig.plane.monitor().packets(current), live_at_3s);
  // Lifetime aggregation spans every placement.
  EXPECT_EQ(rig.plane.packets(0),
            frozen + rig.plane.monitor().packets(current) +
                rig.plane.monitor().packets(
                    {rec.history[1].monitor_scope, rec.history[1].local}));
}

TEST(ClusterFailover, OneBoardTripSpillsEveryStreamToTheHost) {
  Rig rig{1};
  for (std::size_t i = 0; i < 4; ++i) rig.add_stream(i, Time::sec(4));
  rig.health[0]->schedule_crash(Time::sec(1));  // stays dead
  rig.eng.run_until(Time::sec(4));

  const auto& m = rig.plane.metrics();
  EXPECT_EQ(m.failovers, 1u);
  EXPECT_EQ(m.failbacks, 0u);
  EXPECT_EQ(rig.plane.watchdog(0).trips(), 1u);
  EXPECT_FALSE(rig.plane.board_serving(0));
  // Detection latency: max_missed probes at ~interval cadence plus timeout.
  EXPECT_GT(m.failover_latency_ms, 0.0);
  EXPECT_LT(m.failover_latency_ms, 1000.0);
  // No sibling exists, so the host takes every stream, at the trip.
  EXPECT_EQ(m.migrations_started, 0u);
  EXPECT_EQ(m.host_takeover_streams, 4u);
  EXPECT_EQ(m.readmission_complete_ms, m.failover_latency_ms);
  ASSERT_NE(rig.plane.host_server(), nullptr);
  EXPECT_EQ(rig.plane.host_server()->service().scheduler().stream_count(), 4u);
  // The host kept the tap running: the outage is a bounded violation burst
  // on every stream, not a collapse.
  for (GlobalStreamId g = 0; g < 4; ++g) {
    EXPECT_TRUE(rig.plane.registry().record(g).where.on_host());
    EXPECT_LT(rig.plane.violation_rate(g), 0.5);
  }
  EXPECT_GT(rig.client.total_frames(), 4u * 60);
}

TEST(ClusterFailover, OneBoardRebootDrainsEveryStreamHomeUnderItsLocalId) {
  Rig rig{1};
  for (std::size_t i = 0; i < 4; ++i) rig.add_stream(i, Time::sec(5));
  rig.health[0]->schedule_crash(Time::sec(1), /*reboot_after=*/Time::ms(800));
  rig.eng.run_until(Time::sec(5));

  const auto& m = rig.plane.metrics();
  EXPECT_EQ(m.failovers, 1u);
  EXPECT_EQ(m.failbacks, 1u);
  EXPECT_TRUE(rig.plane.board_serving(0));
  EXPECT_EQ(rig.plane.watchdog(0).recoveries(), 1u);
  // The ack that triggered recovery carried the post-reboot incarnation.
  EXPECT_EQ(rig.plane.watchdog(0).last_ack_incarnation(), 1u);
  EXPECT_EQ(rig.health[0]->incarnation(), 1u);
  EXPECT_EQ(m.host_takeover_streams, 4u);
  EXPECT_EQ(m.drainbacks_started, 4u);
  EXPECT_EQ(m.drainbacks_completed, 4u);
  EXPECT_GT(m.recovery_time_ms, m.failover_latency_ms);

  // Every stream is home under its original local id, in a fresh monitor
  // scope (new incarnation), after one placement on the host; the drain
  // re-reserved it on the board.
  EXPECT_EQ(rig.plane.admission(0).admitted(), 4u);
  for (GlobalStreamId g = 0; g < 4; ++g) {
    const auto& rec = rig.plane.registry().record(g);
    EXPECT_EQ(rec.where.board, 0);
    EXPECT_EQ(rec.where.local, rec.home_local);
    EXPECT_EQ(rec.where.incarnation, 1u);
    ASSERT_EQ(rec.history.size(), 2u);
    EXPECT_TRUE(rec.history[1].on_host());
    // Frames flow end to end on the board again.
    EXPECT_GT(rig.plane.monitor().packets(
                  {rec.where.monitor_scope, rec.where.local}),
              40u);
  }
}

TEST(ClusterFailover, OneBoardRepeatedCrashesSpillEachStreamToItsHostIdAgain) {
  // Three crash/reboot cycles: each trip spills the four streams to the
  // host and each reboot drains them home. A stream that spilled before
  // re-adopts its host id, so the host scheduler keeps four entries, not
  // four more per crash, and the host placement sits once in each history.
  Rig rig{1};
  for (std::size_t i = 0; i < 4; ++i) rig.add_stream(i, Time::sec(8));
  for (int k = 0; k < 3; ++k) {
    const Time crash = Time::sec(1 + 2 * k);
    rig.health[0]->schedule_crash(crash, /*reboot_after=*/Time::ms(800));
    rig.eng.run_until(crash + Time::ms(1800));
    ASSERT_NE(rig.plane.host_server(), nullptr);
    EXPECT_EQ(rig.plane.host_server()->service().scheduler().stream_count(),
              4u)
        << "after crash " << k + 1;
  }

  const auto& m = rig.plane.metrics();
  EXPECT_EQ(m.failovers, 3u);
  EXPECT_EQ(m.failbacks, 3u);
  EXPECT_EQ(m.host_takeover_streams, 12u);
  EXPECT_EQ(m.drainbacks_completed, 12u);
  for (GlobalStreamId g = 0; g < 4; ++g) {
    const auto& rec = rig.plane.registry().record(g);
    EXPECT_EQ(rec.where.board, 0);
    EXPECT_EQ(rec.where.local, rec.home_local);
    EXPECT_EQ(rec.where.incarnation, 3u);
    // Board incarnations 0, 1 and 2, and the host once.
    ASSERT_EQ(rec.history.size(), 4u);
    EXPECT_EQ(std::count_if(rec.history.begin(), rec.history.end(),
                            [](const Residence& r) { return r.on_host(); }),
              1);
    EXPECT_TRUE(rec.history.back().on_host());
  }
}

TEST(ClusterFailover, OneBoardPurgedFramesShowInPackets) {
  Rig rig{1};
  const auto g = rig.plane.open_stream(kParams, 1000, rig.client.port());
  ASSERT_TRUE(g.has_value());
  // Queue frames but stop the clock before any dispatch: they sit in the
  // NI ring when the board dies.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(rig.plane.enqueue(*g, 1000, mpeg::FrameType::kP));
  }
  const auto before = rig.plane.packets(*g);
  rig.health[0]->crash();
  rig.eng.run_until(Time::sec(1));  // watchdog trips, fail_over purges

  const auto& m = rig.plane.metrics();
  EXPECT_EQ(m.failovers, 1u);
  EXPECT_EQ(m.frames_purged, 5u);
  // Every purged frame was recorded against the stream's window.
  EXPECT_EQ(rig.plane.packets(*g), before + 5);
}

TEST(ClusterFailover, OneBoardEnqueueBetweenDeathAndTripIsRefused) {
  Rig rig{1};
  const auto g = rig.plane.open_stream(kParams, 1000, rig.client.port());
  ASSERT_TRUE(g.has_value());
  rig.health[0]->crash();
  // Before the watchdog notices, enqueues hit the dead NI service: refused,
  // counted, and recorded as a drop at the dead placement.
  EXPECT_FALSE(rig.plane.enqueue(*g, 1000, mpeg::FrameType::kP));
  EXPECT_EQ(rig.plane.ni(0).service().rejected_offline(), 1u);
  EXPECT_EQ(rig.plane.metrics().frames_rejected, 1u);
  EXPECT_EQ(rig.plane.packets(*g), 1u);
}

TEST(ClusterFailover, OneBoardFaultFreeRunNeverTrips) {
  Rig rig{1};
  for (std::size_t i = 0; i < 4; ++i) rig.add_stream(i, Time::sec(3));
  rig.eng.run_until(Time::sec(3));
  EXPECT_TRUE(rig.plane.board_serving(0));
  EXPECT_EQ(rig.plane.watchdog(0).trips(), 0u);
  EXPECT_GT(rig.plane.watchdog(0).acks_received(), 20u);
  EXPECT_EQ(rig.plane.metrics().failovers, 0u);
  EXPECT_EQ(rig.plane.host_server(), nullptr);
  EXPECT_EQ(rig.plane.monitor().total_violating_windows(), 0u);
}

TEST(ClusterFailover, OneBoardRefusesAdmissionWhileDown) {
  Rig rig{1};
  for (std::size_t i = 0; i < 2; ++i) rig.add_stream(i, Time::sec(5));
  rig.health[0]->schedule_crash(Time::sec(1), /*reboot_after=*/Time::ms(800));
  // The watchdog trips by ~1.4 s; the board is back by ~2.5 s at worst.
  rig.eng.run_until(Time::ms(1500));
  ASSERT_FALSE(rig.plane.board_serving(0));
  // Fresh admission never spills to the host: with its only board down
  // the plane refuses the stream.
  EXPECT_FALSE(
      rig.plane.open_stream(kParams, 1000, rig.client.port()).has_value());
  EXPECT_EQ(rig.plane.metrics().rejected_admission, 1u);

  rig.eng.run_until(Time::sec(3));
  ASSERT_TRUE(rig.plane.board_serving(0));
  const auto fresh = rig.plane.open_stream(kParams, 1000, rig.client.port());
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(rig.plane.registry().record(*fresh).where.board, 0);
  EXPECT_EQ(rig.plane.metrics().rejected_admission, 1u);
  paced_producer(rig.eng, rig.plane, *fresh, Time::zero(), Time::sec(5))
      .detach();
  rig.eng.run_until(Time::sec(5));
  EXPECT_GT(rig.plane.packets(*fresh), 40u);
}

TEST(ClusterFailover, MonitorScopeKeyingDoesNotAliasAcrossBoards) {
  dwcs::WindowViolationMonitor mon;
  const dwcs::WindowConstraint c{0, 2};  // no losses tolerated
  const dwcs::WindowViolationMonitor::StreamKey a{.scope = 1, .stream = 0};
  const dwcs::WindowViolationMonitor::StreamKey b{.scope = 2, .stream = 0};
  mon.add_stream(a, c);
  mon.add_stream(b, c);

  using O = dwcs::WindowViolationMonitor::Outcome;
  mon.record(a, O::kDropped);
  mon.record(a, O::kDropped);
  mon.record(b, O::kOnTime);
  mon.record(b, O::kOnTime);
  // Same local stream id, different scope: independent windows.
  EXPECT_EQ(mon.violating_windows(a), 1u);
  EXPECT_EQ(mon.violating_windows(b), 0u);
  EXPECT_EQ(mon.packets(a), 2u);
  EXPECT_EQ(mon.packets(b), 2u);

  // Re-registering an existing key (hang recovery) keeps its history...
  mon.add_stream(a, c);
  EXPECT_EQ(mon.packets(a), 2u);
  // ...and the legacy positional API is the keyed API at scope 0.
  mon.add_stream(c);
  mon.record(dwcs::StreamId{0}, O::kDropped);
  EXPECT_EQ(mon.packets(dwcs::StreamId{0}), 1u);
  EXPECT_EQ(mon.packets({0, 0}), 1u);
  EXPECT_EQ(mon.total_violating_windows(), 1u);
}

}  // namespace
}  // namespace nistream::cluster
