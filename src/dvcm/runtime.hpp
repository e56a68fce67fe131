// NI-side DVCM runtime.
//
// Runs on the i960 RD board under the wind kernel. A dispatch task drains
// the I2O inbound FIFO and routes each message frame to the extension module
// that registered its instruction opcode (paper §2: "The third set of DVCM
// functions are the extensions that support specific applications' needs").
// Extensions are installed at run time — the paper's "run-time extensions" —
// and may spawn their own NI tasks (the DWCS scheduler extension does).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dvcm/instruction.hpp"
#include "hw/nic_board.hpp"
#include "rtos/wind.hpp"
#include "sim/coro.hpp"

namespace nistream::dvcm {

class VcmRuntime;

/// A loadable DVCM extension. install() registers instruction handlers and
/// spawns any tasks the extension needs.
class ExtensionModule {
 public:
  virtual ~ExtensionModule() = default;
  [[nodiscard]] virtual const char* name() const = 0;
  virtual void install(VcmRuntime& runtime) = 0;
};

class VcmRuntime {
 public:
  /// NI-CPU cost of fetching + routing one message frame.
  static constexpr std::int64_t kDispatchCycles = 300;

  VcmRuntime(hw::NicBoard& board, rtos::WindKernel& kernel)
      : board_{board}, kernel_{kernel} {}

  VcmRuntime(const VcmRuntime&) = delete;
  VcmRuntime& operator=(const VcmRuntime&) = delete;

  [[nodiscard]] hw::NicBoard& board() { return board_; }
  [[nodiscard]] rtos::WindKernel& kernel() { return kernel_; }
  [[nodiscard]] InstructionRegistry& registry() { return registry_; }

  void load_extension(std::unique_ptr<ExtensionModule> ext) {
    ext->install(*this);
    extensions_.push_back(std::move(ext));
  }

  [[nodiscard]] const std::vector<std::unique_ptr<ExtensionModule>>&
  extensions() const {
    return extensions_;
  }

  /// What running one message frame's handler came to: whether an
  /// extension knew its opcode, and the NI cycles the dispatching task owes.
  struct Dispatched {
    bool known = false;
    std::int64_t cycles = 0;
  };

  /// Route `msg` to its handler. Handlers run the real (instrumented) code;
  /// whatever cycles they charge to the board CPU are owed as task time,
  /// plus the fixed fetch/route overhead.
  Dispatched dispatch(const hw::I2oMessage& msg) {
    const std::int64_t before = board_.cpu().cycles();
    const bool known = registry_.dispatch(msg);
    return {known, kDispatchCycles + board_.cpu().cycles() - before};
  }

  /// Send a reply frame back to the host, echoing the request cookie.
  void reply(const hw::I2oMessage& request, hw::I2oMessage response) {
    response.function = request.function | kReplyFlag;
    response.w2 = request.w2;  // transaction cookie
    board_.i2o().post_outbound(std::move(response));
  }

  /// Start the dispatch task (priority just below the media scheduler so
  /// enqueue processing cannot starve dispatching of frames, §3.1.1's
  /// concurrency requirement).
  void start(int dispatch_priority = 60) {
    rtos::Task& task = kernel_.spawn("tVcmDispatch", dispatch_priority);
    [](VcmRuntime& self, rtos::Task& t) -> sim::Coro {
      for (;;) {
        const hw::I2oMessage msg = co_await self.board_.i2o().inbound().receive();
        if (!self.board_.alive()) {
          // Crashed/hung firmware fetches nothing: the message frame rots in
          // the FIFO from the sender's point of view; here we drop it so the
          // mailbox does not grow without bound.
          continue;
        }
        const Dispatched d = self.dispatch(msg);
        co_await t.consume_cycles(d.cycles);
        ++(d.known ? self.dispatched_ : self.unknown_);
      }
    }(*this, task).detach();

    // Core instructions every DVCM instance provides.
    registry_.add(kNop, [](const hw::I2oMessage&) {});
    registry_.add(kPing, [this](const hw::I2oMessage& m) {
      reply(m, hw::I2oMessage{.w0 = m.w0, .w1 = m.w1});
    });
    registry_.add(kListExtensions, [this](const hw::I2oMessage& m) {
      reply(m, hw::I2oMessage{.w0 = extensions_.size()});
    });
  }

  [[nodiscard]] std::uint64_t dispatched() const { return dispatched_; }
  [[nodiscard]] std::uint64_t unknown_instructions() const { return unknown_; }

 private:
  hw::NicBoard& board_;
  rtos::WindKernel& kernel_;
  InstructionRegistry registry_;
  std::vector<std::unique_ptr<ExtensionModule>> extensions_;
  std::uint64_t dispatched_ = 0;
  std::uint64_t unknown_ = 0;
};

}  // namespace nistream::dvcm
