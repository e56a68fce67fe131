// Tests for the web-server pool model and httperf load generator.
#include "apps/webload.hpp"

#include <gtest/gtest.h>

namespace nistream::apps {
namespace {

using sim::Time;

TEST(WebServer, PoolStartsAtInitialSize) {
  sim::Engine eng;
  hostos::HostMachine host{eng, 2};
  WebServerModel web{host};
  EXPECT_EQ(web.pool_size(), 5);  // Apache StartServers
}

TEST(WebServer, ServesSubmittedRequests) {
  sim::Engine eng;
  hostos::HostMachine host{eng, 2};
  WebServerModel web{host};
  for (int i = 0; i < 20; ++i) web.submit_request();
  eng.run();
  EXPECT_EQ(web.requests_arrived(), 20u);
  EXPECT_EQ(web.requests_served(), 20u);
  EXPECT_EQ(web.backlog(), 0u);
}

TEST(WebServer, PoolGrowsUnderBacklogToMax) {
  sim::Engine eng;
  hostos::HostMachine host{eng, 1};
  WebServerModel web{host};
  for (int i = 0; i < 200; ++i) web.submit_request();
  eng.run();
  EXPECT_EQ(web.pool_size(), 10);  // Apache MaxClients cap
  EXPECT_EQ(web.requests_served(), 200u);
}

TEST(Httperf, HitsTargetUtilization) {
  for (const double target : {0.3, 0.6}) {
    sim::Engine eng;
    hostos::HostMachine host{eng, 2, hw::Calibration{}, Time::ms(500)};
    WebServerModel web{host, 42};
    HttperfLoad load{web, host,
                     HttperfLoad::Params{.target_utilization = target,
                                         .cpus = 2,
                                         .stop = Time::sec(60),
                                         .seed = 43}};
    eng.run_until(Time::sec(60));
    const auto util = host.perfmeter(Time::sec(60));
    const double avg = util.mean_between(Time::zero(), Time::sec(60));
    EXPECT_NEAR(avg, target * 100.0, 8.0) << "target " << target;
  }
}

TEST(Httperf, ProfileShapesTheLoad) {
  sim::Engine eng;
  hostos::HostMachine host{eng, 2, hw::Calibration{}, Time::sec(1)};
  WebServerModel web{host, 7};
  HttperfLoad load{web, host,
                   HttperfLoad::Params{.target_utilization = 0.6,
                                       .cpus = 2,
                                       .stop = Time::sec(100),
                                       .seed = 8,
                                       .profile = HttperfLoad::figure6_heavy()}};
  eng.run_until(Time::sec(100));
  const auto util = host.perfmeter(Time::sec(100));
  const double early = util.mean_between(Time::sec(1), Time::sec(9));
  const double plateau = util.mean_between(Time::sec(45), Time::sec(75));
  EXPECT_GT(plateau, 80.0);          // the Figure 6 saturation plateau
  EXPECT_LT(early, plateau * 0.6);   // ramp-up is visibly lighter
}

TEST(Httperf, MultiplierLookup) {
  sim::Engine eng;
  hostos::HostMachine host{eng, 1};
  WebServerModel web{host};
  HttperfLoad load{web, host,
                   HttperfLoad::Params{.target_utilization = 0.5,
                                       .cpus = 1,
                                       .stop = Time::sec(100),
                                       .profile = {{0, 1.0}, {50, 2.0}}}};
  EXPECT_DOUBLE_EQ(load.multiplier_at(10.0), 1.0);
  EXPECT_DOUBLE_EQ(load.multiplier_at(50.0), 2.0);
  EXPECT_DOUBLE_EQ(load.multiplier_at(99.0), 2.0);
}

}  // namespace
}  // namespace nistream::apps
