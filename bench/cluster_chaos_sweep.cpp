// Cluster chaos sweep: NI-to-NI failover under a scripted board crash,
// measured across cluster sizes and load levels.
//
// Each cell builds a ClusterControlPlane over N scheduler-NIs, admits a
// stream population (capacity shaped by an inflated per-frame CPU cost so
// the interesting spill regimes are reachable with few streams), crashes
// board 0 at 2 s, reboots it at 3 s, and runs to 6 s. Every cell runs
// TWICE with the same seed and the two charge fingerprints must be
// identical — replay determinism is an acceptance criterion, not a test
// afterthought.
//
// What the JSON proves (the acceptance criteria of the cluster work):
//  * while siblings have admission headroom, host takeovers == 0 — the
//    board death is absorbed NI-to-NI, the host stays out of the data path;
//  * a deliberately tight cell (every sibling full) spills the remainder to
//    the host instead of refusing service;
//  * re-admission completes within 2x the single-board failover detection
//    latency (~251 ms in PR 2's chaos sweep -> 502 ms bound);
//  * one scripted crash -> exactly one failover and, after the reboot, one
//    fail-back with every migrated stream drained home.
// The bench exits nonzero when any property fails, so CI can gate on it.
//
// Reproducible from the command line:
//   cluster_chaos_sweep [--out out.json] [--seed=u64] [--jobs=N] [--smoke]
// bench/runner.hpp runs the cells in parallel under --jobs and keeps the
// JSON byte-identical for any job count; --smoke trims the grid to one
// headroom cell and the spill cell for CI.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/client.hpp"
#include "cluster/control_plane.hpp"
#include "fault/board_health.hpp"
#include "runner.hpp"
#include "sim/random.hpp"

using namespace nistream;

namespace {

constexpr sim::Time kRunFor = sim::Time::sec(6);
constexpr sim::Time kCrashAt = sim::Time::sec(2);
constexpr sim::Time kRebootAfter = sim::Time::sec(1);
constexpr sim::Time kFramePeriod = sim::Time::ms(33);
// Inflated per-frame NI CPU cost: 3.3 ms at a 33 ms period = 0.1 CPU per
// stream, so one board holds 9 streams under the 0.90 headroom. Small
// per-board capacity keeps the spill cells cheap to run while exercising
// exactly the same re-admission arithmetic as a 300-stream board would.
constexpr sim::Time kPerFrameCpu = sim::Time::us(3300);
constexpr std::size_t kPerBoardCapacity = 9;

struct CellSpec {
  int boards;
  std::size_t streams;
  /// Expected spill count with board 0 dead: victims that exceed the
  /// surviving boards' joint headroom.
  bool expect_spill;
};

struct CellResult {
  CellSpec spec{};
  cluster::ClusterControlPlane::Metrics plane;
  std::uint64_t streams_placed = 0;
  std::uint64_t frames_enqueued = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t violating_windows = 0;
  std::uint64_t charge_fingerprint = 0;  // summed per-board CPU cycles
};

sim::Coro paced_producer(sim::Engine& eng, cluster::ClusterControlPlane& plane,
                         cluster::GlobalStreamId id, std::uint64_t seed,
                         sim::Time phase, std::uint64_t* enqueued) {
  sim::Rng rng{seed};
  co_await sim::Delay{eng, kFramePeriod + phase};
  for (;;) {
    if (eng.now() >= kRunFor) co_return;
    const auto bytes = static_cast<std::uint32_t>(
        std::max(128.0, rng.normal(1000.0, 150.0)));
    if (plane.enqueue(id, bytes, mpeg::FrameType::kP)) ++(*enqueued);
    co_await sim::Delay{eng, kFramePeriod};
  }
}

CellResult run_cell(const CellSpec& spec, std::uint64_t seed) {
  CellResult r{.spec = spec};

  sim::Engine eng;
  hostos::HostMachine host{eng, 2};
  hw::EthernetSwitch ether{eng};
  apps::MpegClient client{eng, ether};

  cluster::ClusterControlPlane::Config cfg;
  cfg.boards = spec.boards;
  cfg.service.scheduler.deadline_from_completion = true;
  cfg.per_frame_cpu = kPerFrameCpu;
  cluster::ClusterControlPlane plane{host, ether, cfg};

  std::vector<std::unique_ptr<fault::BoardHealth>> health;
  for (int b = 0; b < spec.boards; ++b) {
    health.push_back(std::make_unique<fault::BoardHealth>(eng));
    plane.attach_health(b, *health.back());
  }
  health[0]->schedule_crash(kCrashAt, kRebootAfter);

  std::uint64_t enqueued = 0;
  for (std::size_t i = 0; i < spec.streams; ++i) {
    const auto id = plane.open_stream(
        {.tolerance = {1, 4}, .period = kFramePeriod, .lossy = true}, 1000,
        client.port());
    if (!id) continue;
    paced_producer(eng, plane, *id, seed ^ (0x9E3779B97F4A7C15ull * (i + 1)),
                   sim::Time::us(733.0 * static_cast<double>(i)), &enqueued)
        .detach();
  }
  eng.run_until(kRunFor);

  r.plane = plane.metrics();
  r.streams_placed = plane.streams_opened();
  r.frames_enqueued = enqueued;
  r.frames_delivered = client.total_frames();
  r.violating_windows = plane.monitor().total_violating_windows();
  for (int b = 0; b < spec.boards; ++b) {
    r.charge_fingerprint += static_cast<std::uint64_t>(
        plane.ni(b).board().cpu().cycles());
  }
  return r;
}

/// Same-seed replay: the control plane's choreography must be
/// deterministic down to the charge stream.
std::uint64_t replay_print(const CellResult& r) {
  bench::Fingerprint fp;
  for (const std::uint64_t v :
       {r.charge_fingerprint, r.frames_delivered, r.violating_windows,
        r.plane.migrations_completed, r.plane.host_takeover_streams}) {
    fp.add(v);
  }
  return fp.h;
}

void check(const CellResult& r, bench::Verdict& v) {
  const auto& m = r.plane;
  if (m.failovers != 1) v.fail("expected exactly one failover");
  if (m.failbacks != 1) v.fail("expected exactly one fail-back after reboot");
  if (r.spec.expect_spill) {
    if (m.host_takeover_streams == 0) {
      v.fail("tight cell should have spilled to the host");
    }
  } else {
    // The headline property: siblings with headroom absorb the board death
    // entirely — the host never enters the data path.
    if (m.host_takeover_streams != 0) {
      v.fail("host takeover despite sibling headroom");
    }
  }
  // Re-admission bound: 2x the single-board failover detection latency
  // measured by PR 2's chaos sweep (~251 ms).
  if (m.readmission_complete_ms <= 0 || m.readmission_complete_ms > 502.0) {
    v.fail("re-admission took " + std::to_string(m.readmission_complete_ms) +
           " ms (bound 502)");
  }
  if (r.frames_delivered < r.frames_enqueued / 2) {
    v.fail("fewer than half the enqueued frames were delivered");
  }
}

void write_cell(bench::Json& j, const CellResult& c, const bench::Verdict& v) {
  const auto& m = c.plane;
  j.u("boards", static_cast<std::uint64_t>(c.spec.boards))
      .u("streams", c.spec.streams).b("expect_spill", c.spec.expect_spill)
      .wrap(5).u("placed", c.streams_placed).u("enqueued", c.frames_enqueued)
      .u("delivered", c.frames_delivered).u("rejected", m.frames_rejected)
      .u("purged", m.frames_purged)
      .wrap(5).u("violating_windows", c.violating_windows)
      .u("failovers", m.failovers).u("failbacks", m.failbacks)
      .u("migrations", m.migrations_completed)
      .u("drainbacks", m.drainbacks_completed)
      .u("host_takeovers", m.host_takeover_streams)
      .u("stale_adoptions", m.stale_adoptions)
      .wrap(5).f("failover_latency_ms", m.failover_latency_ms, 3)
      .f("readmission_complete_ms", m.readmission_complete_ms, 3)
      .f("recovery_time_ms", m.recovery_time_ms, 3)
      .wrap(5).u("charge_fingerprint", c.charge_fingerprint)
      .b("replay_identical", v.replay_identical).verdict(v);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Sweep sweep{argc, argv, "cluster_chaos_sweep", "BENCH_cluster.json",
                     0xC1A57};

  // Cells: (boards, streams). Light cells leave sibling headroom (board 0's
  // share fits on the survivors); the tight 2-board cell fills both boards
  // so the evacuation must spill. --smoke keeps one of each regime.
  const std::vector<CellSpec> specs =
      sweep.smoke ? std::vector<CellSpec>{
                        {.boards = 3, .streams = 6, .expect_spill = false},
                        {.boards = 2, .streams = 18, .expect_spill = true},
                    }
                  : std::vector<CellSpec>{
                        {.boards = 3, .streams = 6, .expect_spill = false},
                        {.boards = 3, .streams = 12, .expect_spill = false},
                        {.boards = 2, .streams = 8, .expect_spill = false},
                        {.boards = 2, .streams = 18, .expect_spill = true},
                    };

  return sweep.run(bench::Plan<CellSpec, CellResult>{
      .title = "cluster chaos sweep: NI-to-NI failover",
      .cells = specs,
      .coord = [](const CellSpec& s) {
        return (static_cast<std::uint64_t>(s.boards) << 32) ^ s.streams;
      },
      .run = run_cell,
      .replay = replay_print,
      .gates = check,
      .header = [](bench::Json& j) {
        j.g("run_sec", kRunFor.to_sec()).g("crash_at_sec", kCrashAt.to_sec())
            .g("reboot_after_sec", kRebootAfter.to_sec())
            .u("per_board_capacity", kPerBoardCapacity);
      },
      .fields = write_cell,
      .columns = {"boards", "streams", "placed", "delivered", "migrations",
                  "drainbacks", "host_takeovers", "violating_windows",
                  "failover_latency_ms", "readmission_complete_ms",
                  "replay_identical", "ok"},
  });
}
