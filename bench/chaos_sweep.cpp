// Chaos sweep: graceful degradation under injected faults, measured.
//
// A fault-rate × stream-count grid over the failover media server. Every
// cell runs the same deterministic scenario: paced producers feed MPEG-sized
// frames from the NI's disks through the NI-resident DWCS scheduler to a
// remote client, while the fault plane injects Ethernet loss/corruption, I2O
// message drops, PCI transaction errors, and disk faults at the cell's rate.
// Cells with a nonzero rate also crash the NI board mid-run and reboot it
// one second later, exercising the full watchdog-trip -> host-takeover ->
// fail-back cycle.
//
// What the JSON proves (the acceptance criteria of the fault-plane work):
//  * rate 0 == the old perfect world: zero faults injected, zero failovers;
//  * at >= 1% fault rates the watchdog completes failover AND failback, and
//    per-stream window violations stay bounded — QoS degrades, it does not
//    collapse.
// The bench exits nonzero when either property fails, so CI can gate on it.
//
// Reproducible from the command line:
//   chaos_sweep [out.json] [--seed=u64] [--jobs=N] [--smoke]
// bench/runner.hpp runs the cells in parallel under --jobs and keeps the
// JSON byte-identical for any job count; --smoke shrinks the grid for CI.
#include <cstdint>
#include <string>
#include <vector>

#include "apps/client.hpp"
#include "apps/failover_server.hpp"
#include "fault/fault_plane.hpp"
#include "mpeg/frame.hpp"
#include "runner.hpp"

using namespace nistream;

namespace {

constexpr sim::Time kRunFor = sim::Time::sec(6);
constexpr sim::Time kCrashAt = sim::Time::sec(2);
constexpr sim::Time kRebootAfter = sim::Time::sec(1);
constexpr sim::Time kFramePeriod = sim::Time::ms(33);
constexpr std::uint32_t kFrameBytes = mpeg::kPaperFrameBytes;
// Frames fetched per disk I/O. Per-frame reads from interleaved streams pay a
// full seek+rotation (~4 ms) each, saturating two disks at 32 streams; block
// reads amortize the mechanical cost as a real media pump does.
constexpr std::uint32_t kFramesPerBlock = 8;

struct CellSpec {
  double rate;
  std::size_t streams;
};

struct CellResult {
  CellSpec spec{};
  fault::FaultPlane::Summary faults;
  apps::FailoverMediaServer::Metrics server;
  std::uint64_t frames_enqueued = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t violating_windows = 0;
  double max_stream_violation_rate = 0;
};

/// Paced per-stream producer: prefetch the next frame from disk, then enqueue
/// it exactly on the period grid (a real pump reads ahead; pacing on
/// read-completion would drift by the read latency every period and smear
/// lateness into the rate-0 baseline). A rejected frame is NOT retried — it
/// stands in for a live source whose moment has passed (the router records it
/// as a drop against the stream's window).
sim::Coro chaos_producer(sim::Engine& engine, hw::ScsiDisk& disk,
                         apps::FailoverMediaServer& server, dwcs::StreamId id,
                         std::uint64_t disk_offset, sim::Time stagger,
                         sim::Time anchor, std::uint64_t* enqueued) {
  // Stagger admission phase so the per-disk block reads do not convoy on the
  // disk gate every refill cycle (real servers admit streams over time, not
  // in one burst).
  if (stagger > sim::Time::zero()) co_await sim::Delay{engine, stagger};
  std::uint64_t offset = disk_offset;
  co_await disk.read(offset, kFrameBytes * kFramesPerBlock);  // prime
  offset += kFrameBytes * kFramesPerBlock;
  // The pacing grid starts at `anchor` — fixed per stream, NOT at whatever
  // instant the primed read completed. Anchoring on read completion would
  // scatter grids by the (random) seek time, and any two streams landing
  // within the VCM's ~70 us serialized dispatch of each other would make
  // the later one structurally late on every frame. From the anchor on, any
  // lateness is caused by the system under test — disk contention, injected
  // faults, failover — never by the pump itself.
  sim::Time next = anchor;
  for (;;) {
    for (std::uint32_t k = 0; k < kFramesPerBlock; ++k) {
      if (engine.now() < next) {
        co_await sim::Delay{engine, next - engine.now()};
      }
      if (engine.now() >= kRunFor) co_return;
      if (server.enqueue(id, kFrameBytes, mpeg::FrameType::kP)) ++(*enqueued);
      next = next + kFramePeriod;
    }
    co_await disk.read(offset, kFrameBytes * kFramesPerBlock);
    offset += kFrameBytes * kFramesPerBlock;
  }
}

CellResult run_cell(const CellSpec& spec, std::uint64_t seed) {
  const double rate = spec.rate;
  const std::size_t n_streams = spec.streams;
  CellResult r{.spec = spec};

  sim::Engine eng;
  hostos::HostMachine host{eng, 2};
  hw::PciBus bus{eng};
  hw::EthernetSwitch ether{eng};
  fault::FaultPlane plane{eng, fault::FaultProfile::uniform(rate, seed)};

  // Completion-anchored deadlines: with dozens of same-period streams the
  // VCM serializes near-tied dispatches at ~30 us each, so the last stream
  // in a tie is structurally a few tens of us past its own deadline. Grid
  // anchoring would turn that phase deficit into a permanent 100% drop rate
  // for that stream; completion anchoring absorbs it (see scheduler.hpp).
  apps::FailoverMediaServer::Config cfg;
  cfg.service.scheduler.deadline_from_completion = true;
  apps::FailoverMediaServer server{host, bus, ether, cfg};
  apps::MpegClient client{eng, ether};

  // Wire the injectors into every layer the frames traverse. Rate-0 cells
  // wire them too — proving the hooks are inert when the policy is zero.
  ether.set_fault(&plane.link());
  bus.set_fault(&plane.pci());
  server.ni().board().i2o().set_fault(&plane.i2o());
  server.ni().board().disk(0).set_fault(&plane.disk());
  server.ni().board().disk(1).set_fault(&plane.disk());
  server.ni().attach_health(plane.health());

  if (rate > 0) plane.health().schedule_crash(kCrashAt, kRebootAfter);

  std::uint64_t enqueued = 0;
  const std::size_t per_disk = (n_streams + 1) / 2;
  const double refill_us = kFramePeriod.to_us() * kFramesPerBlock;
  for (std::size_t i = 0; i < n_streams; ++i) {
    const auto id = server.create_stream(
        {.tolerance = {1, 4}, .period = kFramePeriod, .lossy = true},
        client.port());
    const auto stagger = sim::Time::us(
        refill_us * static_cast<double>(i / 2) / static_cast<double>(per_disk));
    // Grid anchor: stagger + a budget covering the worst-case fault-free
    // primed read (~9 ms) + a sub-period phase spreading the streams'
    // deadlines 733 us apart so no two fall within the VCM's serialized
    // dispatch window of each other.
    const auto anchor = stagger + sim::Time::ms(10) +
                        sim::Time::us(733.0 * static_cast<double>(i));
    chaos_producer(eng, server.ni().board().disk(static_cast<int>(i % 2)),
                   server, id, /*disk_offset=*/i * 0x0100'0000ull, stagger,
                   anchor, &enqueued)
        .detach();
  }

  eng.run_until(kRunFor);

  r.faults = plane.summary();
  r.server = server.metrics();
  r.frames_enqueued = enqueued;
  r.frames_delivered = client.total_frames();
  r.violating_windows = server.monitor().total_violating_windows();
  for (std::size_t i = 0; i < n_streams; ++i) {
    const double vr =
        server.monitor().violation_rate(static_cast<dwcs::StreamId>(i));
    if (vr > r.max_stream_violation_rate) r.max_stream_violation_rate = vr;
  }
  return r;
}

void check(const CellResult& r, bench::Verdict& v) {
  if (r.spec.rate == 0.0) {
    if (r.faults.total() != 0) v.fail("faults injected at rate 0");
    if (r.server.failovers != 0) v.fail("failover at rate 0");
    if (r.violating_windows != 0) v.fail("violations in the perfect world");
  } else {
    if (r.faults.total() == 0) v.fail("no faults injected at nonzero rate");
    if (r.server.failovers == 0) {
      v.fail("watchdog never tripped on a dead board");
    }
    if (r.server.failbacks == 0) v.fail("NI never re-instated after reboot");
    // "Bounded" = degradation, not collapse: even with the board dead for
    // over a second of a six-second run, most window positions must hold.
    if (r.max_stream_violation_rate > 0.5) {
      v.fail("violation rate " + std::to_string(r.max_stream_violation_rate) +
             " exceeds 0.5 on some stream");
    }
    if (r.frames_delivered < r.frames_enqueued / 2) {
      v.fail("fewer than half the enqueued frames were delivered");
    }
  }
}

void write_cell(bench::Json& j, const CellResult& c, const bench::Verdict& v) {
  const auto& f = c.faults;
  const auto& m = c.server;
  j.g("fault_rate", c.spec.rate).u("streams", c.spec.streams)
      .b("crash", c.spec.rate > 0)
      .wrap(5).u("faults_injected", f.total())
      .u("frames_dropped", f.frames_dropped)
      .u("frames_corrupted", f.frames_corrupted)
      .u("i2o_dropped", f.i2o_inbound_dropped + f.i2o_outbound_dropped)
      .u("pci_errors", f.pci_errors).u("disk_read_errors", f.disk_read_errors)
      .u("disk_spikes", f.disk_spikes)
      .wrap(5).u("enqueued", c.frames_enqueued)
      .u("delivered", c.frames_delivered).u("rejected", m.frames_rejected)
      .u("purged", m.frames_purged)
      .wrap(5).u("violating_windows", c.violating_windows)
      .f("max_violation_rate", c.max_stream_violation_rate, 4)
      .wrap(5).u("failovers", m.failovers).u("failbacks", m.failbacks)
      .f("failover_latency_ms", m.failover_latency_ms, 3)
      .f("recovery_time_ms", m.recovery_time_ms, 3)
      .wrap(5).verdict(v);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Sweep sweep{argc, argv, "chaos_sweep", "BENCH_chaos.json", 0xFA017};

  // --smoke keeps one perfect-world cell and one faulted cell: enough to
  // exercise both acceptance branches on a CI time budget.
  const std::vector<double> rates =
      sweep.smoke ? std::vector<double>{0.0, 0.05}
                  : std::vector<double>{0.0, 0.01, 0.05};
  const std::vector<std::size_t> stream_counts =
      sweep.smoke ? std::vector<std::size_t>{8}
                  : std::vector<std::size_t>{8, 32};
  std::vector<CellSpec> specs;
  for (const double rate : rates) {
    for (const std::size_t n : stream_counts) specs.push_back({rate, n});
  }

  return sweep.run(bench::Plan<CellSpec, CellResult>{
      .title = "chaos sweep: fault rate x streams",
      .cells = specs,
      .coord = [](const CellSpec& s) {
        return (static_cast<std::uint64_t>(s.rate * 1000) << 32) ^ s.streams;
      },
      .run = run_cell,
      .gates = check,
      .header = [](bench::Json& j) {
        j.g("run_sec", kRunFor.to_sec()).g("crash_at_sec", kCrashAt.to_sec())
            .g("reboot_after_sec", kRebootAfter.to_sec());
      },
      .fields = write_cell,
      .columns = {"fault_rate", "streams", "faults_injected", "delivered",
                  "violating_windows", "max_violation_rate",
                  "failover_latency_ms", "recovery_time_ms", "ok"},
  });
}
