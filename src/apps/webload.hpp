// Web-server load antagonist: Apache process-pool model + httperf client.
//
// Figure 6's load profiles come from "httperf" clients hammering an Apache
// 1.3.12 with "a maximum of 10 server processes and starting process pool
// with five server processes". The model reproduces the CPU-contention
// structure: a pool of host processes, each serving queued requests by
// consuming CPU, with pool growth under backlog. Request arrivals are
// Poisson at a rate chosen to hit a target average utilization; service
// demand is drawn per request, so utilization fluctuates the way the paper's
// perfmeter traces do (peaks well above the average).
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "hostos/host.hpp"
#include "sim/coro.hpp"
#include "sim/random.hpp"

namespace nistream::apps {

/// Apache's pool: kInitialProcesses (StartServers) at start, growing to
/// kMaxProcesses (MaxClients) under backlog.
inline constexpr int kInitialProcesses = 5;
inline constexpr int kMaxProcesses = 10;
/// Mean CPU demand per request (dynamic-ish content on a 200 MHz PPro;
/// CGI-era pages are tens of ms of CPU). Request CPU demand is exponential
/// around it (mix of static pages and heavier hits).
inline constexpr sim::Time kMeanRequestCpu = sim::Time::ms(15);

class WebServerModel {
 public:
  /// `seed` draws the per-request CPU demand.
  explicit WebServerModel(hostos::HostMachine& host, std::uint64_t seed = 7)
      : host_{host}, rng_{seed}, queue_{host.engine()} {
    for (int i = 0; i < kInitialProcesses; ++i) spawn_worker();
  }

  WebServerModel(const WebServerModel&) = delete;
  WebServerModel& operator=(const WebServerModel&) = delete;

  /// A request arrived from the network (called by HttperfLoad).
  void submit_request() {
    ++arrived_;
    // Apache grows the pool when requests back up.
    if (queue_.size() > 2 && workers_ < kMaxProcesses) spawn_worker();
    queue_.send(rng_.exponential(kMeanRequestCpu.to_us()));
  }

  [[nodiscard]] std::uint64_t requests_arrived() const { return arrived_; }
  [[nodiscard]] std::uint64_t requests_served() const { return served_; }
  [[nodiscard]] int pool_size() const { return workers_; }
  [[nodiscard]] std::size_t backlog() const { return queue_.size(); }

 private:
  void spawn_worker() {
    ++workers_;
    hostos::Process& proc =
        host_.spawn("httpd-" + std::to_string(workers_));
    [](WebServerModel& self, hostos::Process& p) -> sim::Coro {
      for (;;) {
        const double cpu_us = co_await self.queue_.receive();
        co_await p.consume(sim::Time::us(cpu_us));
        ++self.served_;
      }
    }(*this, proc).detach();
  }

  hostos::HostMachine& host_;
  sim::Rng rng_;
  sim::Mailbox<double> queue_;  // per-request CPU demand in us
  int workers_ = 0;
  std::uint64_t arrived_ = 0;
  std::uint64_t served_ = 0;
};

/// Open-loop HTTP load generator (the remote Linux httperf boxes).
///
/// Figure 6's traces are not stationary: the load ramps up, holds a
/// near-saturation plateau for ~40 s, and ramps down. The generator follows
/// a piecewise-constant intensity profile shaped like those traces, scaled
/// so the *time-average* utilization hits the requested target — which means
/// the plateau pushes the machine into the >80% region where the host
/// scheduler visibly starves (Figures 7-8).
class HttperfLoad {
 public:
  /// (start second, intensity multiplier) breakpoints, piecewise constant.
  using Profile = std::vector<std::pair<double, double>>;

  struct Params {
    /// Requested average machine utilization (0..1) across `cpus` CPUs.
    double target_utilization = 0.45;
    int cpus = 2;
    sim::Time stop = sim::Time::sec(100);
    std::uint64_t seed = 11;
    /// Empty profile = constant intensity.
    Profile profile{};
  };

  /// The Figure 6 60%-average trace shape: ramp from 10 s, plateau past
  /// saturation 40-80 s, tail off.
  [[nodiscard]] static Profile figure6_heavy() {
    return {{0, 0.5}, {10, 1.1}, {25, 1.6}, {40, 1.8}, {80, 0.2}};
  }
  /// The Figure 6 45%-average trace shape: long moderate plateau.
  [[nodiscard]] static Profile figure6_moderate() {
    return {{0, 0.35}, {15, 1.0}, {20, 1.25}, {80, 0.3}};
  }

  HttperfLoad(WebServerModel& server, hostos::HostMachine& host, Params p)
      : server_{server}, params_{std::move(p)}, rng_{params_.seed} {
    if (params_.profile.empty()) params_.profile = {{0.0, 1.0}};
    const double capacity_us_per_s = 1e6 * params_.cpus;
    const double target_rate = params_.target_utilization *
                               capacity_us_per_s / kMeanRequestCpu.to_us();
    base_rate_per_sec_ = target_rate / average_multiplier();
    [](HttperfLoad& self, sim::Engine& eng) -> sim::Coro {
      while (eng.now() < self.params_.stop) {
        const double rate =
            self.base_rate_per_sec_ * self.multiplier_at(eng.now().to_sec());
        if (rate <= 0) {
          co_await sim::Delay{eng, sim::Time::ms(500)};
          continue;
        }
        co_await sim::Delay{eng,
                            sim::Time::sec(self.rng_.exponential(1.0 / rate))};
        if (eng.now() < self.params_.stop) self.server_.submit_request();
      }
    }(*this, host.engine()).detach();
  }

  [[nodiscard]] double multiplier_at(double t_sec) const {
    double m = params_.profile.front().second;
    for (const auto& [start, mult] : params_.profile) {
      if (t_sec >= start) m = mult;
    }
    return m;
  }

 private:
  [[nodiscard]] double average_multiplier() const {
    const double stop = params_.stop.to_sec();
    double sum = 0;
    for (std::size_t i = 0; i < params_.profile.size(); ++i) {
      const double s = params_.profile[i].first;
      const double e =
          i + 1 < params_.profile.size() ? params_.profile[i + 1].first : stop;
      if (s >= stop) break;
      sum += (std::min(e, stop) - s) * params_.profile[i].second;
    }
    return sum / stop;
  }

  WebServerModel& server_;
  Params params_;
  sim::Rng rng_;
  double base_rate_per_sec_ = 0;
};

}  // namespace nistream::apps
