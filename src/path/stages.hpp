// Composable datapath stages (src/path): each stage charges one calibrated
// cost on its resource — disk mechanics, filesystem overheads, PCI DMA, I2O
// descriptor posting, segmentation CPU, scheduler-ring admission — and the
// FramePath stamps the frame around it. The paper's Paths A/B/C (and any new
// variant) are just different orderings of these stages; see paths.hpp for
// the declarative compositions.
#pragma once

#include <cstdint>
#include <memory>

#include "dvcm/stream_service.hpp"
#include "hw/pci.hpp"
#include "net/udp.hpp"
#include "path/staged_frame.hpp"
#include "sim/coro.hpp"
#include "sim/cpusched.hpp"
#include "sim/engine.hpp"

namespace nistream::path {

/// Backoff before retrying a ring-full enqueue (the producers' backpressure
/// policy: a rejected frame is retried, never lost).
inline constexpr sim::Time kEnqueueBackoff = sim::Time::ms(5);

/// One hop of the pipeline. Stages are stateless per frame (all per-frame
/// state rides in the StagedFrame); a stage object owns only references to
/// the hardware/OS models it charges.
class Stage {
 public:
  virtual ~Stage() = default;
  Stage() = default;
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

  /// Short stable name used for the per-stage latency breakdown
  /// ("disk", "fs", "pci", "segment", "enqueue", "send", ...).
  [[nodiscard]] virtual const char* name() const = 0;

  /// Move the frame through this stage, charging its cost. Runs inline on
  /// the pumping coroutine (joins via symmetric transfer, no extra engine
  /// events), so compositions reproduce hand-rolled loops event-for-event.
  virtual sim::Coro apply(StagedFrame& f) = 0;
};

/// Read the frame's bytes at its disk offset. Works for any device with an
/// awaitable `read(offset, bytes)` — hw::ScsiDisk and hw::StripedVolume.
template <typename Disk>
class DiskStage final : public Stage {
 public:
  explicit DiskStage(Disk& disk) : disk_{disk} {}
  [[nodiscard]] const char* name() const override { return "disk"; }
  sim::Coro apply(StagedFrame& f) override {
    co_await disk_.read(f.disk_offset, f.bytes);
  }

 private:
  Disk& disk_;
};

/// Read the frame through a host filesystem (UFS or dosFs), optionally
/// charging the per-call overheads to a host thread so file service competes
/// for the CPU (the Figure 7/8 contention; pass nullptrs for an otherwise
/// idle machine where only latency matters, as in Table 4).
template <typename Fs>
class FsStage final : public Stage {
 public:
  FsStage(Fs& fs, sim::CpuScheduler* cpu = nullptr,
          sim::CpuScheduler::Thread* thread = nullptr)
      : fs_{fs}, cpu_{cpu}, thread_{thread} {}
  [[nodiscard]] const char* name() const override { return "fs"; }
  sim::Coro apply(StagedFrame& f) override {
    co_await fs_.read(f.disk_offset, f.bytes, cpu_, thread_);
  }

 private:
  Fs& fs_;
  sim::CpuScheduler* cpu_;
  sim::CpuScheduler::Thread* thread_;
};

/// Peer-to-peer DMA of the frame body across the PCI segment — the Path B
/// hop from the disk-attached NI to the scheduler NI.
class PciDmaStage final : public Stage {
 public:
  explicit PciDmaStage(hw::PciBus& bus) : bus_{bus} {}
  [[nodiscard]] const char* name() const override { return "pci"; }
  sim::Coro apply(StagedFrame& f) override { co_await bus_.dma(f.bytes); }

 private:
  hw::PciBus& bus_;
};

/// CPU-charged MPEG segmentation (start-code scan + header decode). CpuCtx
/// is rtos::Task or hostos::Process — anything with an awaitable
/// `consume_cycles(n)` on the machine's scheduler, so the cost stretches
/// under contention exactly as the hand-rolled producers' did.
template <typename CpuCtx>
class SegmentStage final : public Stage {
 public:
  SegmentStage(CpuCtx& ctx, std::int64_t cycles_per_frame)
      : ctx_{ctx}, cycles_{cycles_per_frame} {}
  [[nodiscard]] const char* name() const override { return "segment"; }
  sim::Coro apply(StagedFrame&) override {
    co_await ctx_.consume_cycles(cycles_);
  }

 private:
  CpuCtx& ctx_;
  std::int64_t cycles_;
};

/// Admit the frame into a StreamService ring with backpressure: a full ring
/// (or exhausted card memory) is retried after `backoff`, never dropped.
/// Retries are stamped into the frame and aggregated by the pump.
class EnqueueStage final : public Stage {
 public:
  EnqueueStage(sim::Engine& engine, dvcm::StreamService& service,
               sim::Time backoff = kEnqueueBackoff)
      : engine_{engine}, service_{service}, backoff_{backoff} {}
  [[nodiscard]] const char* name() const override { return "enqueue"; }
  sim::Coro apply(StagedFrame& f) override {
    while (!service_.enqueue(f.stream, f.bytes, f.type)) {
      ++f.enqueue_retries;
      co_await sim::Delay{engine_, backoff_};
    }
  }

 private:
  sim::Engine& engine_;
  dvcm::StreamService& service_;
  sim::Time backoff_;
};

/// Put the frame on the wire as a UDP packet — the schedulerless tail of the
/// Table 4 critical-path experiments. `stamp_dispatch` false models a relay
/// hop that is not the dispatch point (the cluster interconnect leg).
class UdpSendStage final : public Stage {
 public:
  UdpSendStage(sim::Engine& engine, net::UdpEndpoint& endpoint, int dest_port,
               bool stamp_dispatch = true)
      : engine_{engine}, endpoint_{endpoint}, dest_port_{dest_port},
        stamp_dispatch_{stamp_dispatch} {}
  [[nodiscard]] const char* name() const override { return "send"; }
  sim::Coro apply(StagedFrame& f) override {
    net::Packet pkt;
    pkt.stream_id = f.stream;
    pkt.seq = f.seq;
    pkt.bytes = f.bytes;
    pkt.frame_type = f.type;
    pkt.enqueued_at = f.created_at;
    if (stamp_dispatch_) pkt.dispatched_at = engine_.now();
    endpoint_.send(dest_port_, pkt);
    co_return;
  }

 private:
  sim::Engine& engine_;
  net::UdpEndpoint& endpoint_;
  int dest_port_;
  bool stamp_dispatch_;
};

/// A fixed-latency hop with no modeled resource — e.g. the cluster
/// interconnect's store-and-forward pipeline in the §1 network path.
class DelayStage final : public Stage {
 public:
  DelayStage(sim::Engine& engine, sim::Time latency, const char* label = "hop")
      : engine_{engine}, latency_{latency}, label_{label} {}
  [[nodiscard]] const char* name() const override { return label_; }
  sim::Coro apply(StagedFrame&) override {
    co_await sim::Delay{engine_, latency_};
  }

 private:
  sim::Engine& engine_;
  sim::Time latency_;
  const char* label_;
};

}  // namespace nistream::path
