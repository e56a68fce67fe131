// I2O messaging hardware on the i960 RD card: the inbound/outbound message
// FIFO pair that the I2O spec defines between host and card. The host posts
// message frames with PIO writes across PCI; a doorbell then wakes the
// card-side consumer. This is the transport the DVCM host API rides on. A
// posted message waits out its post cost and doorbell latency in a
// per-direction queue, and its doorbell event captures only the channel:
// that delay is the same for every post, so each direction's doorbells ring
// in post order and each one hands over the queue's oldest message.
//
// The card's 1004 memory-mapped "hardware queue" registers (paper §4.2.1)
// are modelled where Table 3 uses them: dwcs::RingTable under
// DescriptorResidency::kHardwareQueue charges each descriptor access at the
// register cost.
#pragma once

#include <cstdint>
#include <memory>

#include "fault/injector.hpp"
#include "hw/calibration.hpp"
#include "hw/pci.hpp"
#include "sim/coro.hpp"
#include "sim/engine.hpp"
#include "sim/fifo.hpp"

namespace nistream::hw {

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
    // written; only the doorbell (and thus delivery) is lost. The injector
    // counts the drop.
    if (fault_ != nullptr && fault_->drop_inbound()) return cost;
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
    if (fault_ != nullptr && fault_->drop_outbound()) return cost;
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
  fault::I2oFaultInjector* fault_ = nullptr;
};

}  // namespace nistream::hw
