// Remote MPEG client model.
//
// Attaches to the scheduler's Ethernet port over the switched 100 Mbps
// interconnect and measures what the paper's client-side instrumentation
// measured: per-stream delivered bandwidth (Figures 7 and 9) and end-to-end
// frame latency (Table 4's methodology).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>

#include "hw/ethernet.hpp"
#include "net/udp.hpp"
#include "sim/engine.hpp"
#include "sim/stats.hpp"

namespace nistream::apps {

class MpegClient {
 public:
  MpegClient(sim::Engine& engine, hw::EthernetSwitch& ether,
             sim::Time stack_cost = net::kHostStackCost)
      : endpoint_{engine, ether, stack_cost,
                  [this](const net::Packet& p, sim::Time at) { receive(p, at); }} {}

  [[nodiscard]] int port() const { return endpoint_.port(); }

  /// Delivered-bandwidth series for one stream (bits/second).
  [[nodiscard]] const sim::TimeSeries& bandwidth(std::uint64_t stream_id) {
    return meter(stream_id).series();
  }
  /// Flush bandwidth samples to `t` (call once at the end of a run).
  void finish(sim::Time t) {
    for (auto& [id, m] : meters_) m->finish(t);
  }

  [[nodiscard]] std::uint64_t frames_received(std::uint64_t stream_id) const {
    const auto it = counts_.find(stream_id);
    return it == counts_.end() ? 0 : it->second;
  }
  [[nodiscard]] std::uint64_t total_frames() const { return total_frames_; }
  [[nodiscard]] std::uint64_t total_bytes() const { return total_bytes_; }

  /// End-to-end latency (enqueue at the server to delivery here), ms.
  [[nodiscard]] const sim::RunningStat& latency_ms() const { return latency_; }
  /// Dispatch-to-delivery (network-only) latency, ms.
  [[nodiscard]] const sim::RunningStat& net_latency_ms() const {
    return net_latency_;
  }

  // Session lifecycle hooks. An RTSP-driven client and a synthetic one share
  // this model: the session plane notifies PAUSE/PLAY/TEARDOWN transitions
  // so the client can audit the data plane against the control plane —
  // frames landing while a stream is paused are counted separately (a
  // handful in flight at the instant of PAUSE is expected; a steady drip
  // means the server ignored the pause).

  void notify_pause(std::uint64_t stream_id) {
    if (paused_.insert(stream_id).second) ++pauses_;
  }
  void notify_resume(std::uint64_t stream_id) {
    if (paused_.erase(stream_id) != 0) ++resumes_;
  }
  /// Stream over (TEARDOWN or end of media): close out its bandwidth meter.
  void notify_end(std::uint64_t stream_id, sim::Time at) {
    paused_.erase(stream_id);
    const auto it = meters_.find(stream_id);
    if (it != meters_.end()) it->second->finish(at);
  }

  [[nodiscard]] bool paused(std::uint64_t stream_id) const {
    return paused_.contains(stream_id);
  }
  [[nodiscard]] std::uint64_t frames_while_paused() const {
    return frames_while_paused_;
  }
  [[nodiscard]] std::uint64_t pauses() const { return pauses_; }
  [[nodiscard]] std::uint64_t resumes() const { return resumes_; }

 private:
  /// Bandwidth meter granularity of the Figure 7/9 series: a 2 s sliding
  /// window sampled every 500 ms.
  static constexpr sim::Time kBandwidthWindow = sim::Time::sec(2);
  static constexpr sim::Time kBandwidthSample = sim::Time::ms(500);

  sim::RateMeter& meter(std::uint64_t stream_id) {
    auto it = meters_.find(stream_id);
    if (it == meters_.end()) {
      it = meters_
               .emplace(stream_id, std::make_unique<sim::RateMeter>(
                                       kBandwidthWindow, kBandwidthSample,
                                       "stream" + std::to_string(stream_id)))
               .first;
    }
    return *it->second;
  }

  void receive(const net::Packet& p, sim::Time at) {
    if (paused_.contains(p.stream_id)) ++frames_while_paused_;
    meter(p.stream_id).record(at, p.bytes);
    ++counts_[p.stream_id];
    ++total_frames_;
    total_bytes_ += p.bytes;
    latency_.add((at - p.enqueued_at).to_ms());
    net_latency_.add((at - p.dispatched_at).to_ms());
  }

  net::UdpEndpoint endpoint_;
  std::map<std::uint64_t, std::unique_ptr<sim::RateMeter>> meters_;
  std::map<std::uint64_t, std::uint64_t> counts_;
  std::set<std::uint64_t> paused_;
  std::uint64_t frames_while_paused_ = 0;
  std::uint64_t pauses_ = 0;
  std::uint64_t resumes_ = 0;
  std::uint64_t total_frames_ = 0;
  std::uint64_t total_bytes_ = 0;
  sim::RunningStat latency_;
  sim::RunningStat net_latency_;
};

}  // namespace nistream::apps
