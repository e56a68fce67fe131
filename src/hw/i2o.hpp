// I2O messaging hardware on the i960 RD card.
//
// Two pieces:
//  * HardwareQueue — the card's 1004 memory-mapped 32-bit registers
//    (paper §4.2.1), usable as a circular buffer of frame descriptors.
//    Accesses are on-chip and "do not generate any external bus cycles";
//    they are charged at the CPU's mmio register cost and never go through
//    the data cache.
//  * I2oChannel — the inbound/outbound message FIFO pair that the I2O spec
//    defines between host and card. The host posts message frames with PIO
//    writes across PCI; a doorbell then wakes the card-side consumer. This
//    is the transport the DVCM host API rides on. A posted message waits
//    out its post cost and doorbell latency in a per-direction queue, and
//    its doorbell event captures only the channel: that delay is the same
//    for every post, so each direction's doorbells ring in post order and
//    each one hands over the queue's oldest message.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "fault/injector.hpp"
#include "hw/calibration.hpp"
#include "hw/cpu.hpp"
#include "hw/pci.hpp"
#include "sim/coro.hpp"
#include "sim/engine.hpp"
#include "sim/fifo.hpp"

namespace nistream::hw {

/// Circular queue over the card's memory-mapped register file.
/// Capacity is regs-1 (one slot distinguishes full from empty).
class HardwareQueue {
 public:
  HardwareQueue(CpuModel& cpu, std::uint32_t regs = kI2o.hardware_queue_regs)
      : cpu_{cpu}, regs_(regs, 0) {}

  [[nodiscard]] std::size_t capacity() const { return regs_.size() - 1; }
  [[nodiscard]] std::size_t size() const {
    return (head_ + regs_.size() - tail_) % regs_.size();
  }
  [[nodiscard]] bool empty() const { return head_ == tail_; }
  [[nodiscard]] bool full() const { return (head_ + 1) % regs_.size() == tail_; }

  /// Enqueue a 32-bit descriptor. Charges one register write (+ index
  /// register update). Returns false when full.
  bool push(std::uint32_t v) {
    if (full()) return false;
    cpu_.reg_access();  // data register write
    cpu_.reg_access();  // index register update
    regs_[head_] = v;
    head_ = (head_ + 1) % regs_.size();
    return true;
  }

  /// Dequeue the oldest descriptor; empty -> nullopt.
  std::optional<std::uint32_t> pop() {
    if (empty()) return std::nullopt;
    cpu_.reg_access();
    cpu_.reg_access();
    const std::uint32_t v = regs_[tail_];
    tail_ = (tail_ + 1) % regs_.size();
    return v;
  }

  /// Random-access read of the i-th queued element (0 = oldest). The
  /// embedded scheduler scans descriptors in place without dequeuing.
  [[nodiscard]] std::uint32_t peek(std::size_t i) const {
    cpu_.reg_access();
    return regs_[(tail_ + i) % regs_.size()];
  }

  /// Overwrite the i-th queued element in place.
  void poke(std::size_t i, std::uint32_t v) {
    cpu_.reg_access();
    regs_[(tail_ + i) % regs_.size()] = v;
  }

 private:
  CpuModel& cpu_;
  mutable std::vector<std::uint32_t> regs_;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
};

/// One I2O message frame. `function` selects the operation (the DVCM layers
/// its instruction opcodes here); the words are operation-defined arguments;
/// `payload` carries bulk, endpoint-typed content that in hardware would sit
/// in a DMA-described buffer.
struct I2oMessage {
  std::uint32_t function = 0;
  std::uint64_t w0 = 0, w1 = 0, w2 = 0;
  std::shared_ptr<void> payload;
};

/// Host<->card FIFO pair with modeled posting costs.
class I2oChannel {
 public:
  I2oChannel(sim::Engine& engine, PciBus& bus, const I2oParams& p = kI2o)
      : engine_{engine}, bus_{bus}, params_{p},
        inbound_{engine}, outbound_{engine} {}

  I2oChannel(const I2oChannel&) = delete;
  I2oChannel& operator=(const I2oChannel&) = delete;

  /// Host -> card. Returns the host-CPU time spent posting (PIO writes for
  /// the message frame + doorbell); the message lands in the card's inbound
  /// FIFO after that plus the doorbell latency.
  sim::Time post_inbound(I2oMessage m) {
    const sim::Time cost = post_cost();
    // A dropped message still cost the poster its PIO writes — the frame was
    // written; only the doorbell (and thus delivery) is lost.
    if (fault_ != nullptr && fault_->drop_inbound()) {
      ++inbound_dropped_;
      return cost;
    }
    inbound_posting_.push_back(std::move(m));
    engine_.schedule_in(cost + params_.doorbell_latency, [this] {
      inbound_.send(inbound_posting_.pop_front());
    });
    ++inbound_posted_;
    return cost;
  }

  /// Card -> host (reply/notification path).
  sim::Time post_outbound(I2oMessage m) {
    const sim::Time cost = post_cost();
    if (fault_ != nullptr && fault_->drop_outbound()) {
      ++outbound_dropped_;
      return cost;
    }
    outbound_posting_.push_back(std::move(m));
    engine_.schedule_in(cost + params_.doorbell_latency, [this] {
      outbound_.send(outbound_posting_.pop_front());
    });
    ++outbound_posted_;
    return cost;
  }

  /// PIO cost of writing one message frame across the bus.
  [[nodiscard]] sim::Time post_cost() const {
    return sim::Time::us(bus_.pio_write_cost().to_us() *
                         static_cast<double>(params_.message_frame_words));
  }

  [[nodiscard]] sim::Mailbox<I2oMessage>& inbound() { return inbound_; }
  [[nodiscard]] sim::Mailbox<I2oMessage>& outbound() { return outbound_; }
  [[nodiscard]] std::uint64_t inbound_posted() const { return inbound_posted_; }
  [[nodiscard]] std::uint64_t outbound_posted() const { return outbound_posted_; }
  [[nodiscard]] std::uint64_t inbound_dropped() const { return inbound_dropped_; }
  [[nodiscard]] std::uint64_t outbound_dropped() const { return outbound_dropped_; }

  /// Attach a fault injector (nullptr detaches).
  void set_fault(fault::I2oFaultInjector* inj) { fault_ = inj; }

 private:
  sim::Engine& engine_;
  PciBus& bus_;
  I2oParams params_;
  sim::Mailbox<I2oMessage> inbound_;
  sim::Mailbox<I2oMessage> outbound_;
  sim::Fifo<I2oMessage> inbound_posting_;   // posted, doorbell not rung yet
  sim::Fifo<I2oMessage> outbound_posting_;
  std::uint64_t inbound_posted_ = 0;
  std::uint64_t outbound_posted_ = 0;
  std::uint64_t inbound_dropped_ = 0;
  std::uint64_t outbound_dropped_ = 0;
  fault::I2oFaultInjector* fault_ = nullptr;
};

}  // namespace nistream::hw
