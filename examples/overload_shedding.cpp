// Overload shedding: differentiated QoS when capacity runs out.
//
// Three streams demand more service than exists. DWCS sheds the deficit
// onto the streams that declared they can tolerate loss, keeping the tight
// stream's window constraint intact; EDF — blind to tolerances — spreads
// misses arbitrarily and breaks it. This is the scheduling-policy argument
// of the paper's §5 made runnable. EDF and round-robin are rank policies of
// the same scheduler (PolicyKind), so only the pick order differs.
#include <cstdio>

#include "dwcs/monitor.hpp"
#include "dwcs/scheduler.hpp"

using namespace nistream;
using sim::Time;

namespace {

struct StreamSpec {
  const char* name;
  dwcs::WindowConstraint tolerance;
};

void run(const dwcs::DwcsScheduler::Config& config,
         const StreamSpec (&specs)[3]) {
  dwcs::DwcsScheduler sched{config};
  dwcs::WindowViolationMonitor monitor;
  std::vector<dwcs::StreamId> ids;
  for (const auto& spec : specs) {
    ids.push_back(sched.create_stream(
        {.tolerance = spec.tolerance, .period = Time::ms(10), .lossy = true},
        Time::zero()));
    monitor.add_stream(spec.tolerance);
  }

  std::uint64_t fid = 0;
  std::vector<std::uint64_t> seen_drops(ids.size(), 0);
  const auto pump = [&] {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const auto d = sched.stats(ids[i]).dropped;
      for (std::uint64_t k = seen_drops[i]; k < d; ++k) {
        monitor.record(ids[i], dwcs::WindowViolationMonitor::Outcome::kDropped);
      }
      seen_drops[i] = d;
    }
  };

  // 300 packets/s offered; ~80% service capacity.
  for (int t = 0; t < 60'000; t += 10) {
    for (const auto id : ids) {
      sched.enqueue(id,
                    {.frame_id = fid++, .bytes = 1000,
                     .type = mpeg::FrameType::kP,
                     .enqueued_at = Time::ms(t)},
                    Time::ms(t));
    }
    // 12 service slots per 5 arrival ticks (15 packets): 80%.
    for (int k = 0; k < (t % 50 == 0 ? 4 : 2); ++k) {
      const auto d = sched.schedule_next(Time::ms(t));
      pump();
      if (d) {
        monitor.record(d->stream,
                       d->late ? dwcs::WindowViolationMonitor::Outcome::kLate
                               : dwcs::WindowViolationMonitor::Outcome::kOnTime);
      }
    }
  }
  pump();

  std::printf("  %-10s %-10s %12s %10s %14s\n", "stream", "tolerance",
              "on-time", "dropped", "violations");
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto& st = sched.stats(ids[i]);
    std::printf("  %-10s %4lld/%-5lld %12llu %10llu %14llu\n", specs[i].name,
                static_cast<long long>(specs[i].tolerance.x),
                static_cast<long long>(specs[i].tolerance.y),
                static_cast<unsigned long long>(st.serviced_on_time),
                static_cast<unsigned long long>(st.dropped),
                static_cast<unsigned long long>(monitor.violating_windows(ids[i])));
  }
}

}  // namespace

int main() {
  // Created loosest-first so that id-based tie-breaking (which EDF and
  // round-robin fall back on) cannot accidentally protect the tight stream.
  const StreamSpec specs[3] = {
      {"thumbnail", {7, 8}},  // decorative: almost everything may go
      {"newscast", {4, 8}},   // can drop every other frame
      {"teleconf", {1, 8}},   // interactive: barely any loss allowed
  };

  std::printf("offered load: 3 x 100 pkt/s; capacity: ~80%%\n");
  std::printf("\nDWCS (window-constrained):\n");
  run({}, specs);

  std::printf("\nEDF (deadline only):\n");
  run({.repr = dwcs::ReprKind::kPifo, .policy = dwcs::PolicyKind::kEdf},
      specs);

  std::printf("\nRound-robin:\n");
  run({.repr = dwcs::ReprKind::kPifo, .policy = dwcs::PolicyKind::kRoundRobin},
      specs);

  std::printf("\nDWCS keeps the teleconference clean by dropping thumbnail\n"
              "frames — the attribute-blind policies violate it instead.\n");
  return 0;
}
