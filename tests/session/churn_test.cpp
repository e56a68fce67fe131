// Determinism of the session plane under churn: a mini-fleet of scripted
// clients (mixed behaviors, pseudorandom arrivals) run twice from the same
// seed must produce bit-identical counters and latency samples — the
// property the churn bench scales to 100k sessions. Honors
// NISTREAM_CHAOS_SEED so the CI seed matrix varies the workload.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "apps/client.hpp"
#include "runner.hpp"  // the sweep harness's splitmix64 and Fingerprint
#include "session/client.hpp"
#include "session/server.hpp"

namespace nistream::session {
namespace {

using bench::Fingerprint;
using bench::splitmix64;
using sim::Time;

RtspChurnClient::Behavior pick_behavior(std::uint64_t r) {
  const std::uint64_t p = r % 100;
  if (p < 60) return RtspChurnClient::Behavior::kPolite;
  if (p < 75) return RtspChurnClient::Behavior::kSlowStart;
  if (p < 90) return RtspChurnClient::Behavior::kVanish;
  return RtspChurnClient::Behavior::kPauseResume;
}

std::uint64_t run_fleet(std::uint64_t seed, int n) {
  sim::Engine eng;
  hw::EthernetSwitch ether{eng};
  SessionServer::Config cfg;
  cfg.door.idle_timeout = Time::ms(500);
  cfg.door.reap_interval = Time::ms(125);
  SessionServer server{eng, ether, cfg};
  apps::MpegClient media{eng, ether};
  net::UdpEndpoint rtcp_sink{eng, ether, net::kHostStackCost,
                             [](const net::Packet&, Time) {}};
  // Each client borrows its config, so the configs outlive the clients.
  std::vector<RtspChurnClient::Config> configs;
  configs.reserve(static_cast<std::size_t>(n));
  std::vector<std::unique_ptr<RtspChurnClient>> clients;
  clients.reserve(static_cast<std::size_t>(n));
  std::uint64_t rng = seed;
  for (int i = 0; i < n; ++i) {
    RtspChurnClient::Config& c = configs.emplace_back();
    c.behavior = pick_behavior(splitmix64(rng));
    c.arrival = Time::us(static_cast<double>(splitmix64(rng) % 1'000'000));
    c.frames = 4 + splitmix64(rng) % 8;
    c.period = Time::ms(10);
    clients.push_back(std::make_unique<RtspChurnClient>(
        eng, ether, server.control_port(), media, rtcp_sink.port(), c));
    clients.back()->start();
  }
  eng.run_until(Time::sec(10));

  const auto& st = server.door().stats();
  EXPECT_EQ(st.post_play_admission_violations, 0u);
  std::uint64_t responded = 0;
  Fingerprint fp;
  for (const auto& c : clients) {
    const auto& o = c->outcome();
    if (o.responded_setup) ++responded;
    fp.add(static_cast<std::uint64_t>(o.setup_status));
    fp.add_double(o.setup_latency_ms);
    fp.add(o.admitted ? 1 : 0);
    fp.add(o.completed ? 1 : 0);
  }
  EXPECT_EQ(responded, static_cast<std::uint64_t>(n));
  fp.add(st.requests);
  fp.add(st.setups_ok);
  fp.add(st.rejected_453);
  fp.add(st.plays);
  fp.add(st.resumes);
  fp.add(st.pauses);
  fp.add(st.teardowns);
  fp.add(st.reaped_idle);
  fp.add(st.conn_closed);
  fp.add(st.eos);
  fp.add(st.frames_pumped);
  fp.add(media.total_frames());
  fp.add(media.total_bytes());
  fp.add(media.frames_while_paused());
  return fp.h;
}

std::uint64_t env_seed() {
  if (const char* s = std::getenv("NISTREAM_CHAOS_SEED")) {
    return std::strtoull(s, nullptr, 0);
  }
  return 42;
}

TEST(SessionChurn, SameSeedReplaysBitIdentical) {
  const std::uint64_t seed = env_seed();
  const std::uint64_t a = run_fleet(seed, 50);
  const std::uint64_t b = run_fleet(seed, 50);
  EXPECT_EQ(a, b);
}

TEST(SessionChurn, DifferentSeedsDiverge) {
  const std::uint64_t seed = env_seed();
  // Different arrival/behavior draws must change the observable outcome —
  // otherwise the fingerprint is vacuous and the replay test proves nothing.
  EXPECT_NE(run_fleet(seed, 50), run_fleet(seed + 1, 50));
}

}  // namespace
}  // namespace nistream::session
