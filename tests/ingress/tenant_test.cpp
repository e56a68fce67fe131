// Multi-tenant session plane: URI → tenant resolution, per-tenant admission
// budgets riding on top of the global controller, (tenant, stream) monitor
// keying, and budget release on teardown. Runs a full SessionServer so the
// tenant path is exercised end to end through RTSP.
#include "ingress/tenant.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "apps/client.hpp"
#include "rtsp_ctl.hpp"
#include "session/client.hpp"
#include "session/server.hpp"

namespace nistream::ingress {
namespace {

using sim::Time;
using session::Method;
using session::RtspRequest;
using session::RtspResponse;
using session::SessionServer;
using test::Ctl;

TEST(TenantScope, UriParsingGoldens) {
  EXPECT_EQ(tenant_from_uri("rtsp://ni/acme/movie"), "acme");
  EXPECT_EQ(tenant_from_uri("rtsp://ni/acme/dir/movie"), "acme");
  EXPECT_EQ(tenant_from_uri("rtsp://ni/stream"), "");    // legacy single-seg
  EXPECT_EQ(tenant_from_uri("rtsp://ni/acme/"), "");     // no second segment
  EXPECT_EQ(tenant_from_uri("rtsp://ni//x"), "");        // empty first segment
  EXPECT_EQ(tenant_from_uri("rtsp://ni"), "");
  EXPECT_EQ(tenant_from_uri("/alpha/movie"), "alpha");   // scheme-less
  EXPECT_EQ(tenant_from_uri(""), "");
}

TEST(TenantScope, DirectoryResolvesAndEnforcesShares) {
  TenantDirectory dir{{{"alpha", {.link_share = 0.5, .cpu_share = 0.5}},
                       {"beta", {}}}};
  ASSERT_EQ(dir.count(), 3u);  // default + 2 named
  EXPECT_EQ(dir.resolve("alpha"), 1u);
  EXPECT_EQ(dir.resolve("beta"), 2u);
  EXPECT_EQ(dir.resolve("nobody"), 0u);
  EXPECT_EQ(dir.resolve(""), 0u);

  // alpha owns half of a 0.9 headroom: 0.45 of each resource.
  EXPECT_TRUE(dir.would_admit(1, 0.4, 0.4, 0.9));
  EXPECT_FALSE(dir.would_admit(1, 0.5, 0.1, 0.9));
  dir.reserve(1, 0.4, 0.4);
  EXPECT_FALSE(dir.would_admit(1, 0.1, 0.1, 0.9));
  EXPECT_TRUE(dir.would_admit(2, 0.5, 0.5, 0.9));  // beta untouched
  dir.release(1, 0.4, 0.4);
  EXPECT_TRUE(dir.would_admit(1, 0.4, 0.4, 0.9));
  EXPECT_EQ(dir.tenant(1).admitted, 0u);

  dir.bind_stream(7, 2);
  EXPECT_EQ(dir.scope_of(7), 2u);
  EXPECT_EQ(dir.scope_of(99), 0u);  // unbound streams default-scope
}

struct TenantRig {
  sim::Engine eng;
  hw::EthernetSwitch ether{eng};
  std::unique_ptr<SessionServer> server;
  apps::MpegClient media{eng, ether};
  net::UdpEndpoint rtcp_sink{eng, ether, net::kHostStackCost,
                             [](const net::Packet&, Time) {}};

  explicit TenantRig(SessionServer::Config cfg = tenant_config()) {
    server = std::make_unique<SessionServer>(eng, ether, cfg);
  }

  /// Two named tenants; alpha's CPU share fits exactly one 10 ms stream
  /// (cpu_load = 120us/10ms = 0.012 against a 0.02 * 0.9 = 0.018 budget).
  static SessionServer::Config tenant_config() {
    SessionServer::Config cfg;
    cfg.door.idle_timeout = Time::ms(300);
    cfg.door.reap_interval = Time::ms(100);
    cfg.tenants = {{"alpha", {.link_share = 1.0, .cpu_share = 0.02}},
                   {"beta", {}}};
    return cfg;
  }

  RtspRequest setup_request(const std::string& uri) {
    RtspRequest req;
    req.method = Method::kSetup;
    req.cseq = ++cseq;
    req.uri = uri;
    req.rtp_port = media.port();
    req.rtcp_port = rtcp_sink.port();
    req.tolerance = dwcs::WindowConstraint{1, 4};
    req.period = Time::ms(10);
    req.frame_bytes = 1000;
    req.frames = 8;
    return req;
  }

  std::uint64_t cseq = 0;
};

TEST(TenantScope, UriDerivedScopeKeysTheMonitor) {
  TenantRig rig;
  Ctl ctl{rig.eng, rig.ether, rig.server->control_port()};
  ctl.send(rig.setup_request("rtsp://ni/beta/movie"));
  rig.eng.run_until(Time::ms(100));
  ASSERT_EQ(ctl.got.size(), 1u);
  ASSERT_EQ(ctl.got[0].status, 200);
  const auto stream = static_cast<dwcs::StreamId>(ctl.got[0].stream);

  // The monitor placement lives under beta's scope (2), not scope 0.
  EXPECT_TRUE(rig.server->monitor().known({2, stream}));
  EXPECT_FALSE(rig.server->monitor().known({0, stream}));
  EXPECT_EQ(rig.server->tenants().tenant(2).admitted, 1u);
  EXPECT_EQ(rig.server->tenants().scope_of(stream), 2u);
}

TEST(TenantScope, DefaultUriStaysScopeZero) {
  TenantRig rig;
  Ctl ctl{rig.eng, rig.ether, rig.server->control_port()};
  ctl.send(rig.setup_request("rtsp://ni/stream"));
  rig.eng.run_until(Time::ms(100));
  ASSERT_EQ(ctl.got.size(), 1u);
  ASSERT_EQ(ctl.got[0].status, 200);
  EXPECT_TRUE(rig.server->monitor().known(
      {0, static_cast<dwcs::StreamId>(ctl.got[0].stream)}));
  EXPECT_EQ(rig.server->tenants().tenant(0).admitted, 1u);
}

TEST(TenantScope, BudgetExhaustedTenantGets453WhileOthersAdmit) {
  TenantRig rig;
  Ctl ctl{rig.eng, rig.ether, rig.server->control_port()};
  // alpha's CPU budget holds one stream; the second SETUP must bounce even
  // though the global controller has ~0.9 headroom left.
  ctl.send(rig.setup_request("rtsp://ni/alpha/a"));
  rig.eng.run_until(Time::ms(100));
  ctl.send(rig.setup_request("rtsp://ni/alpha/b"));
  rig.eng.run_until(Time::ms(200));
  ASSERT_EQ(ctl.got.size(), 2u);
  EXPECT_EQ(ctl.got[0].status, 200);
  EXPECT_EQ(ctl.got[1].status, 453);
  EXPECT_EQ(rig.server->door().stats().tenant_rejected_453, 1u);
  EXPECT_EQ(rig.server->tenants().tenant(1).rejected, 1u);
  EXPECT_LT(rig.server->admission().cpu_utilization(), 0.1);

  // beta is untouched by alpha's exhaustion.
  ctl.send(rig.setup_request("rtsp://ni/beta/c"));
  rig.eng.run_until(Time::ms(300));
  ASSERT_EQ(ctl.got.size(), 3u);
  EXPECT_EQ(ctl.got[2].status, 200);
  EXPECT_EQ(rig.server->tenants().tenant(2).admitted, 1u);
}

TEST(TenantScope, TeardownReleasesTheTenantBudget) {
  TenantRig rig;
  Ctl ctl{rig.eng, rig.ether, rig.server->control_port()};
  ctl.send(rig.setup_request("rtsp://ni/alpha/a"));
  rig.eng.run_until(Time::ms(100));
  ASSERT_EQ(ctl.got.size(), 1u);
  ASSERT_EQ(ctl.got[0].status, 200);

  RtspRequest teardown;
  teardown.method = Method::kTeardown;
  teardown.cseq = 2;
  teardown.session_id = ctl.got[0].session_id;
  ctl.send(teardown);
  rig.eng.run_until(Time::ms(200));
  EXPECT_EQ(rig.server->tenants().tenant(1).admitted, 0u);

  // The budget slot is reusable: alpha admits again.
  ctl.send(rig.setup_request("rtsp://ni/alpha/b"));
  rig.eng.run_until(Time::ms(300));
  ASSERT_EQ(ctl.got.size(), 3u);
  EXPECT_EQ(ctl.got[2].status, 200);
}

TEST(TenantScope, DefaultTenantIsBoundedByTheGlobalPoolAlone) {
  // Default-tenant SETUPs fill the NI (0.9 headroom / 0.012 CPU per stream:
  // ~75 streams). The global controller turns the rest away; no tenant
  // budget does.
  TenantRig rig;
  Ctl ctl{rig.eng, rig.ether, rig.server->control_port()};
  constexpr std::size_t kSetups = 80;
  for (std::size_t i = 0; i < kSetups; ++i) {
    ctl.send(rig.setup_request("rtsp://ni/stream"));
  }
  rig.eng.run_until(Time::ms(100));
  ASSERT_EQ(ctl.got.size(), kSetups);
  const auto admitted = static_cast<std::size_t>(
      std::count_if(ctl.got.begin(), ctl.got.end(),
                    [](const RtspResponse& r) { return r.status == 200; }));
  ASSERT_GT(admitted, 0u);
  ASSERT_LT(admitted, kSetups);
  EXPECT_EQ(ctl.got[admitted - 1].status, 200);
  EXPECT_EQ(ctl.got[admitted].status, 453);  // the first one past full

  const auto& stats = rig.server->door().stats();
  EXPECT_EQ(stats.rejected_453, kSetups - admitted);
  EXPECT_EQ(stats.tenant_rejected_453, 0u);
  EXPECT_EQ(rig.server->admission().rejected(), kSetups - admitted);
  EXPECT_EQ(rig.server->tenants().tenant(0).rejected, 0u);
  EXPECT_EQ(rig.server->tenants().tenant(0).admitted, admitted);
}

TEST(TenantScope, SingleTenantServerCountsLiveSessionsInTheDefaultTenant) {
  // No named tenants: every SETUP takes the tenant path into scope 0, whose
  // reservation count follows the live sessions out through TEARDOWN and
  // the idle reaper.
  SessionServer::Config cfg;
  cfg.door.idle_timeout = Time::ms(300);
  cfg.door.reap_interval = Time::ms(100);
  TenantRig rig{cfg};
  Ctl ctl{rig.eng, rig.ether, rig.server->control_port()};
  const TenantDirectory::Tenant& dflt = rig.server->tenants().tenant(0);
  ASSERT_EQ(rig.server->tenants().count(), 1u);

  ctl.send(rig.setup_request("rtsp://ni/stream"));
  ctl.send(rig.setup_request("rtsp://ni/acme/movie"));  // no such tenant
  rig.eng.run_until(Time::ms(50));
  ASSERT_EQ(ctl.got.size(), 2u);
  ASSERT_EQ(ctl.got[0].status, 200);
  ASSERT_EQ(ctl.got[1].status, 200);
  EXPECT_EQ(dflt.admitted, 2u);
  EXPECT_EQ(rig.server->door().live_sessions(), 2u);
  EXPECT_TRUE(rig.server->monitor().known(
      {0, static_cast<dwcs::StreamId>(ctl.got[1].stream)}));

  RtspRequest teardown;
  teardown.method = Method::kTeardown;
  teardown.cseq = ++rig.cseq;
  teardown.session_id = ctl.got[0].session_id;
  ctl.send(teardown);
  rig.eng.run_until(Time::ms(250));
  ASSERT_EQ(ctl.got.size(), 3u);
  EXPECT_EQ(ctl.got[2].status, 200);
  EXPECT_EQ(dflt.admitted, 1u);
  EXPECT_EQ(rig.server->door().live_sessions(), 1u);

  // The second session idles past 300 ms: the reaper releases it.
  rig.eng.run_until(Time::ms(500));
  EXPECT_EQ(rig.server->door().stats().reaped_idle, 1u);
  EXPECT_EQ(rig.server->door().live_sessions(), 0u);
  EXPECT_EQ(dflt.admitted, 0u);
  EXPECT_EQ(dflt.rejected, 0u);
}

}  // namespace
}  // namespace nistream::ingress
