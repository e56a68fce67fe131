// The media-stream scheduling service: DWCS + client routing + dispatch loop.
//
// This is the part shared verbatim between the two server organizations the
// paper compares: the host-based scheduler (a Solaris process, Figures 7-8)
// and the NI-based scheduler (a VxWorks task inside the DWCS DVCM extension,
// Figures 9-10). The dispatch loop is paced: each stream's head frame is
// released at its deadline (the configured frame period), which is what
// yields the settling per-stream bandwidth of ~250 kbit/s the paper plots.
//
// CPU realism: every scheduling decision's cycle count comes from the same
// instrumented DWCS code path the microbenchmarks measure (via a
// CpuModelCostHook), converted to time on the machine the loop runs on and
// *consumed through that machine's scheduler*. On a loaded host this
// consumption stretches and dispatch falls behind — that stretching is the
// entire Figure 7/8 effect.
//
// Per-stream state is fixed at admission: the client port and the send-side
// frame counter. Nothing is stored per frame, so a stream that plays for
// hours costs what it cost at its first frame. Whoever wants per-frame data
// (the Figure 8/10 queuing-delay series, the session plane's window monitor)
// reads it from the dispatch and drop observers as each frame goes by.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "fault/board_health.hpp"
#include "dwcs/hw_cost_hook.hpp"
#include "dwcs/scheduler.hpp"
#include "hw/memory.hpp"
#include "net/udp.hpp"
#include "sim/coro.hpp"
#include "sim/engine.hpp"
#include "sim/stats.hpp"

namespace nistream::dvcm {

/// Everything a peer needs to re-admit one stream after the machine holding
/// its scheduler state dies: the admission-time parameters plus the send-side
/// sequence position. Queued-but-undispatched frames are NOT part of the
/// checkpoint — they lived in the dead board's RAM and are lost by design
/// (the producer re-enqueues from the source).
struct StreamCheckpoint {
  dwcs::StreamParams params{};
  int client_port = -1;
  std::uint64_t frames_sent = 0;
};

class StreamService {
 public:
  struct Config {
    /// Full scheduler configuration, including repr selection — setting
    /// repr = ReprKind::kHierarchical (+ hierarchical.shards) here puts the
    /// sharded multi-core representation on the board; NiSchedulerServer
    /// seeds hierarchical.hop_cycles from the board calibration's
    /// interconnect when the config leaves it 0.
    dwcs::DwcsScheduler::Config scheduler{};
    /// Frame-dispatch driver cost beyond the scheduling decision (dequeue,
    /// protocol encapsulation, NIC doorbell). Tables 1-3's "w/o scheduler"
    /// column measures this path: ~30 us at 66 MHz.
    std::int64_t dispatch_cycles = 1900;
  };

  /// `cpu` is the machine the service runs on — its cycle counter prices the
  /// scheduling work. `memory` (optional) is the card pool holding the
  /// single frame copies; pass nullptr for host configurations.
  StreamService(sim::Engine& engine, const Config& config, hw::CpuModel& cpu,
                const hw::ArithCosts& int_costs, const hw::ArithCosts& fp_costs,
                hw::MemoryPool* memory = nullptr)
      : engine_{engine},
        config_{config},
        cpu_{cpu},
        hook_{cpu, int_costs, fp_costs},
        sched_{config.scheduler, hook_},
        memory_{memory},
        work_{engine} {
    // Frames the scheduler drops internally (lossy late drops, purges) never
    // reach the dispatch path, so their card-memory copy must be released
    // here or the pool leaks under sustained lateness.
    sched_.set_drop_hook(
        [this](dwcs::StreamId id, const dwcs::FrameDescriptor& d) {
          if (memory_) memory_->release(d.bytes);
          if (drop_observer_) drop_observer_(id, d);
        });
  }

  StreamService(const StreamService&) = delete;
  StreamService& operator=(const StreamService&) = delete;

  /// Register a stream and the client port its frames go to.
  dwcs::StreamId create_stream(const dwcs::StreamParams& params,
                               int client_port) {
    const auto id = sched_.create_stream(params, engine_.now());
    streams_.push_back(PerStream{client_port, 0});
    return id;
  }

  /// Producer side. Allocates the frame's single copy in card memory when a
  /// pool is attached; a full ring or an exhausted pool rejects the frame.
  bool enqueue(dwcs::StreamId id, std::uint32_t bytes, mpeg::FrameType type) {
    if (health_ != nullptr && !health_->alive()) {
      // The board holding the queues is down or hung; nothing can be
      // admitted. Counted separately from resource rejections so failover
      // logic can tell "full" from "dead".
      ++rejected_offline_;
      return false;
    }
    dwcs::FrameDescriptor d;
    d.frame_id = next_frame_id_++;
    d.bytes = bytes;
    d.type = type;
    d.enqueued_at = engine_.now();
    if (memory_ && !memory_->allocate(bytes)) {
      ++rejected_no_memory_;
      return false;
    }
    if (!sched_.enqueue(id, d, engine_.now())) {
      if (memory_) memory_->release(bytes);
      ++rejected_ring_full_;
      return false;
    }
    work_.signal();
    return true;
  }

  /// The dispatch loop. CpuCtx is hostos::Process or rtos::Task — anything
  /// with `consume(sim::Time)` awaitable on the machine's CPU scheduler.
  template <typename CpuCtx>
  sim::Coro run(CpuCtx& ctx, net::UdpEndpoint& endpoint) {
    for (;;) {
      if (stopped_) co_return;
      if (health_ != nullptr && !health_->alive()) {
        // Crashed or hung board: the dispatch task makes no progress. Poll
        // rather than wait on a condition — a crashed board has nobody left
        // to signal it, and 1 ms is far below any frame period.
        co_await sim::Delay{engine_, kHealthPoll};
        continue;
      }
      const auto next = sched_.earliest_backlog_deadline();
      if (!next) {
        co_await work_.wait();
        continue;
      }
      if (*next > engine_.now()) {
        co_await sim::Delay{engine_, *next - engine_.now()};
        continue;  // re-evaluate: new streams may have arrived meanwhile
      }
      // Drain everything currently due as one CPU burst: a real process
      // keeps the CPU while it has work, so the whole batch is a single
      // consume (which the machine's scheduler may slice and delay — that
      // delay is the Figure 7/8 degradation).
      const std::int64_t before = cpu_.cycles();
      // batch_ is a member so its capacity survives iterations: the dispatch
      // loop runs once per frame period and a fresh vector here would put
      // one heap allocation on every frame's critical path.
      batch_.clear();
      auto& batch = batch_;
      for (;;) {
        const auto due = sched_.earliest_backlog_deadline();
        if (!due || *due > engine_.now()) break;
        const auto d = sched_.schedule_next(engine_.now());
        if (!d) break;
        batch.push_back(*d);
      }
      const std::int64_t decision = cpu_.cycles() - before;
      co_await ctx.consume(cpu_.time_of(
          decision +
          config_.dispatch_cycles * static_cast<std::int64_t>(batch.size())));
      for (const auto& d : batch) {
        if (memory_) memory_->release(d.frame.bytes);
        PerStream& ps = streams_[d.stream];
        ++ps.frames_sent;

        net::Packet pkt;
        pkt.stream_id = d.stream;
        pkt.seq = d.frame.frame_id;
        pkt.bytes = d.frame.bytes;
        pkt.frame_type = d.frame.type;
        pkt.enqueued_at = d.frame.enqueued_at;
        pkt.dispatched_at = engine_.now();
        endpoint.send(ps.client_port, pkt);
        ++dispatched_;
        if (dispatch_observer_) dispatch_observer_(d.stream, d);
      }
    }
  }

  void stop() {
    stopped_ = true;
    work_.signal();
  }

  /// Gate the service on a board's health: while not alive, enqueue rejects
  /// and the dispatch loop stalls. nullptr (the default) means always alive.
  void set_health(fault::BoardHealth* h) { health_ = h; }

  /// QoS observers (nullable). The dispatch observer fires once per frame
  /// put on the wire (Dispatch.late distinguishes on-time from late), at the
  /// dispatch instant and after frames_sent() has counted the frame; the
  /// drop observer fires once per frame the scheduler discarded. Together
  /// they are exactly the per-stream outcome sequence a
  /// dwcs::WindowViolationMonitor wants.
  using DispatchObserver =
      std::function<void(dwcs::StreamId, const dwcs::Dispatch&)>;
  using DropObserver =
      std::function<void(dwcs::StreamId, const dwcs::FrameDescriptor&)>;
  void set_dispatch_observer(DispatchObserver obs) {
    dispatch_observer_ = std::move(obs);
  }
  void set_drop_observer(DropObserver obs) { drop_observer_ = std::move(obs); }

  /// Re-admit one checkpointed stream under a fresh local id: a sibling
  /// board or the host adopting a dead board's stream, whose id spaces have
  /// nothing to do with each other. Returns the local id assigned here; the
  /// caller (the cluster control plane's shadow registry) owns the mapping.
  dwcs::StreamId adopt(const StreamCheckpoint& c) {
    const auto id = create_stream(c.params, c.client_port);
    streams_[id].frames_sent = c.frames_sent;
    return id;
  }

  /// Refresh an existing stream from a checkpoint — fail-back onto a board
  /// whose scheduler still has the entry (the simulation keeps the service
  /// object across reboots; only queues and windows were wiped). The frame
  /// counter continues from wherever the stream's last residence left it.
  void readopt(dwcs::StreamId local, const StreamCheckpoint& c) {
    assert(static_cast<std::size_t>(local) < streams_.size());
    streams_[local].frames_sent = c.frames_sent;
  }

  /// Discard every queued frame on every stream — the crash wipe. Frame
  /// memory is released and drops are observed through the drop hook, but no
  /// window adjustments happen and nothing is charged (the CPU that would
  /// pay is the one that died). Returns frames discarded.
  std::size_t purge_backlog() {
    std::size_t purged = 0;
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      purged += sched_.purge_stream(static_cast<dwcs::StreamId>(i));
    }
    return purged;
  }

  [[nodiscard]] dwcs::DwcsScheduler& scheduler() { return sched_; }
  [[nodiscard]] std::uint64_t dispatched() const { return dispatched_; }
  [[nodiscard]] std::uint64_t rejected_ring_full() const {
    return rejected_ring_full_;
  }
  [[nodiscard]] std::uint64_t rejected_no_memory() const {
    return rejected_no_memory_;
  }
  [[nodiscard]] std::uint64_t rejected_offline() const {
    return rejected_offline_;
  }
  /// Send-side sequence position of one stream (what a checkpoint of just
  /// this stream would carry — see StreamCheckpoint.frames_sent).
  [[nodiscard]] std::uint64_t frames_sent(dwcs::StreamId id) const {
    return streams_[id].frames_sent;
  }

 private:
  struct PerStream {
    int client_port;
    std::uint64_t frames_sent;
  };

  static constexpr sim::Time kHealthPoll = sim::Time::ms(1);

  sim::Engine& engine_;
  Config config_;
  hw::CpuModel& cpu_;
  dwcs::CpuModelCostHook hook_;
  dwcs::DwcsScheduler sched_;
  hw::MemoryPool* memory_;
  sim::Condition work_;
  std::vector<dwcs::Dispatch> batch_;  // dispatch-loop scratch, capacity reused
  std::vector<PerStream> streams_;
  std::uint64_t next_frame_id_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t rejected_ring_full_ = 0;
  std::uint64_t rejected_no_memory_ = 0;
  std::uint64_t rejected_offline_ = 0;
  fault::BoardHealth* health_ = nullptr;
  DispatchObserver dispatch_observer_;
  DropObserver drop_observer_;
  bool stopped_ = false;
};

}  // namespace nistream::dvcm
