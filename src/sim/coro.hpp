// Coroutine-based process layer over the event engine.
//
// Simulated software — VxWorks tasks on the NI (src/rtos), Solaris processes
// on the host (src/hostos), stream producers and clients (src/apps) — is
// written as C++20 coroutines returning sim::Coro. A process co_awaits
// primitives (delay, semaphore, condition) that park it in the Engine's event
// queue; the engine resumes it at the right simulated instant. This keeps
// multi-step protocol logic linear instead of exploding into callback state
// machines.
//
// Allocation model: spawning a process costs zero steady-state allocations.
// Coroutine frames come from a per-thread size-bucketed free list
// (CoroFramePool below), and the completion state shared between the frame
// and its Coro handle is embedded in the same pooled block (16-byte header
// in front of the frame, intrusive refcount) — no shared_ptr control block,
// no second allocation. The pool is thread_local: each bench cell runs its
// engine on one thread, and frames never migrate, so the pool needs no locks.
//
// Lifetime rules (deliberately simple, matching how the experiments run):
//  * Coroutines start eagerly at the call site ("spawn" semantics).
//  * Frames always self-destroy at completion (inside the final awaiter,
//    before the continuation is transferred to). The Coro object holds only
//    shared completion state, never the frame — so no code path can touch a
//    frame after its final suspend. (An earlier design let the owner destroy
//    a finished frame from the Coro destructor; destroying a frame while its
//    final-suspend actor code is still unwinding miscompiles on GCC 12 and
//    corrupted the heap — caught by ASan via the DVCM tests.)
//  * A coroutine suspended on a primitive must not be abandoned before the
//    primitive fires; experiments run their engines to completion, so this
//    holds by construction.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <new>
#include <utility>
#include <vector>

#include "sim/block_pool.hpp"
#include "sim/engine.hpp"
#include "sim/fifo.hpp"
#include "sim/time.hpp"

namespace nistream::sim {

namespace detail {

/// Blocks of (b + 1) × 64 bytes, header included, up to 2 KiB: every frame
/// in this repository fits well under that.
using CoroFramePool = BlockPool<64, 32>;
using CoroPoolStats = CoroFramePool::Stats;  // read via coro_pool_stats()

/// Completion state embedded at the front of every pooled coroutine block.
/// Refcount covers: the frame itself (1, released by promise operator delete)
/// and the Coro handle, if still attached (+1). When it hits zero the whole
/// block — header and frame — returns to the pool.
struct Completion {
  std::coroutine_handle<> continuation{};
  std::uint32_t refs = 0;
  std::uint16_t bucket = 0;  // CoroFramePool bucket, or its kOversize
  bool finished = false;
};

/// Header size is one max_align_t unit so the frame behind it keeps maximal
/// alignment (pool blocks are themselves max_align_t-aligned).
inline constexpr std::size_t kCompletionHeaderBytes =
    alignof(std::max_align_t) >= sizeof(Completion) ? alignof(std::max_align_t)
                                                    : sizeof(Completion);
static_assert(kCompletionHeaderBytes % alignof(std::max_align_t) == 0);
static_assert(alignof(Completion) <= alignof(std::max_align_t));

/// Handoff from promise operator new to the promise constructor: the frame is
/// constructed immediately after its block is allocated, on the same thread,
/// so a single thread_local slot is a race-free way for the promise to learn
/// its header address without relying on frame-layout assumptions.
inline thread_local Completion* tl_pending_completion = nullptr;

/// Drop one reference; recycle the block when the count reaches zero.
inline void release_ref(Completion* c) noexcept {
  assert(c->refs > 0);
  if (--c->refs == 0) {
    const std::uint16_t bucket = c->bucket;
    c->~Completion();
    CoroFramePool::instance().release(static_cast<void*>(c), bucket);
  }
}

}  // namespace detail

/// Snapshot of this thread's coroutine-pool counters.
inline detail::CoroPoolStats coro_pool_stats() {
  return detail::CoroFramePool::instance().stats();
}

/// Simulation process handle. Returned by any coroutine process function.
class [[nodiscard]] Coro {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(Handle h) noexcept {
      // Publish completion and grab the continuation *before* destroying the
      // frame: if the process was detached, the frame holds the last
      // reference and h.destroy() recycles the whole block, header included.
      detail::Completion* c = h.promise().completion_;
      c->finished = true;
      const std::coroutine_handle<> next =
          c->continuation ? c->continuation : std::noop_coroutine();
      h.destroy();
      return next;
    }
    void await_resume() const noexcept {}
  };

  struct promise_type {
    detail::Completion* completion_ = nullptr;

    static void* operator new(std::size_t frame_bytes) {
      const std::size_t total = detail::kCompletionHeaderBytes + frame_bytes;
      void* block = detail::CoroFramePool::instance().allocate(total);
      auto* c = ::new (block) detail::Completion{};
      c->refs = 1;  // the frame's own reference
      c->bucket = detail::CoroFramePool::bucket_of(total);
      detail::tl_pending_completion = c;
      return static_cast<std::byte*>(block) + detail::kCompletionHeaderBytes;
    }

    static void operator delete(void* frame) noexcept {
      auto* c = reinterpret_cast<detail::Completion*>(
          static_cast<std::byte*>(frame) - detail::kCompletionHeaderBytes);
      detail::release_ref(c);
    }

    promise_type() : completion_{detail::tl_pending_completion} {
      assert(completion_ != nullptr);
      detail::tl_pending_completion = nullptr;
    }

    Coro get_return_object() {
      ++completion_->refs;  // the Coro handle's reference
      return Coro{completion_};
    }
    std::suspend_never initial_suspend() noexcept { return {}; }  // eager start
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() {}
    [[noreturn]] void unhandled_exception() { std::terminate(); }
  };

  Coro() = default;
  Coro(Coro&& other) noexcept
      : completion_{std::exchange(other.completion_, nullptr)} {}
  Coro& operator=(Coro&& other) noexcept {
    if (this != &other) {
      drop();
      completion_ = std::exchange(other.completion_, nullptr);
    }
    return *this;
  }
  Coro(const Coro&) = delete;
  Coro& operator=(const Coro&) = delete;
  ~Coro() { drop(); }

  [[nodiscard]] bool done() const {
    return completion_ == nullptr || completion_->finished;
  }

  /// Let the process run unowned. Frames free themselves on completion, so
  /// this only drops the handle's reference.
  void detach() { drop(); }

  /// Awaiting a Coro suspends the awaiter until the child completes (join).
  bool await_ready() const noexcept { return done(); }
  void await_suspend(std::coroutine_handle<> parent) noexcept {
    assert(completion_ != nullptr && !completion_->continuation &&
           "Coro joined twice");
    completion_->continuation = parent;
  }
  void await_resume() const noexcept {}

 private:
  explicit Coro(detail::Completion* completion) : completion_{completion} {}

  void drop() noexcept {
    if (completion_ != nullptr) {
      detail::release_ref(std::exchange(completion_, nullptr));
    }
  }

  detail::Completion* completion_ = nullptr;
};

/// co_await Delay{engine, d}: resume after `d` of simulated time.
struct Delay {
  Engine& engine;
  Time duration;

  bool await_ready() const noexcept { return duration <= Time::zero(); }
  void await_suspend(std::coroutine_handle<> h) const {
    engine.schedule_in(duration, [h] { h.resume(); });
  }
  void await_resume() const noexcept {}
};

/// Broadcast condition: all current waiters are resumed on signal().
/// Waiters resume through the event queue at the signalling instant, so
/// wake-up order is deterministic (FIFO by wait order).
class Condition {
 public:
  explicit Condition(Engine& engine) : engine_{engine} {}

  struct Awaiter {
    Condition& cond;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { cond.waiters_.push_back(h); }
    void await_resume() const noexcept {}
  };
  Awaiter wait() { return Awaiter{*this}; }

  /// Wake every coroutine currently waiting. The waiter list is swapped into
  /// a member scratch buffer (not a fresh vector) so repeated signal cycles
  /// reuse both buffers' capacity; schedule_in only enqueues, so nothing
  /// re-enters this object while we iterate.
  void signal() {
    scratch_.swap(waiters_);
    for (auto h : scratch_) {
      engine_.schedule_in(Time::zero(), [h] { h.resume(); });
    }
    scratch_.clear();
  }

  [[nodiscard]] std::size_t waiter_count() const { return waiters_.size(); }

 private:
  Engine& engine_;
  std::vector<std::coroutine_handle<>> waiters_;
  std::vector<std::coroutine_handle<>> scratch_;
};

/// Counting semaphore with FIFO wake-up.
class Semaphore {
 public:
  Semaphore(Engine& engine, std::int64_t initial)
      : engine_{engine}, count_{initial} {}

  struct Awaiter {
    Semaphore& sem;
    bool await_ready() const noexcept {
      if (sem.count_ > 0) {
        --sem.count_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      sem.waiters_.push_back(h);
    }
    void await_resume() const noexcept {}
  };
  Awaiter acquire() { return Awaiter{*this}; }

  void release(std::int64_t n = 1) {
    while (n > 0 && !waiters_.empty()) {
      auto h = waiters_.pop_front();
      engine_.schedule_in(Time::zero(), [h] { h.resume(); });
      --n;
    }
    count_ += n;
  }

  [[nodiscard]] std::int64_t available() const { return count_; }
  [[nodiscard]] std::size_t waiter_count() const { return waiters_.size(); }

 private:
  Engine& engine_;
  std::int64_t count_;
  Fifo<std::coroutine_handle<>> waiters_;
};

/// Unbounded typed channel; receivers block while empty. An idle mailbox
/// owns no heap memory.
template <typename T>
class Mailbox {
 public:
  explicit Mailbox(Engine& engine) : sem_{engine, 0} {}

  void send(T v) {
    items_.push_back(std::move(v));
    sem_.release();
  }

  /// co_await mailbox.receive() -> T
  struct Receiver {
    Mailbox& box;
    Semaphore::Awaiter inner;
    bool await_ready() noexcept { return inner.await_ready(); }
    void await_suspend(std::coroutine_handle<> h) { inner.await_suspend(h); }
    T await_resume() {
      assert(!box.items_.empty());
      return box.items_.pop_front();
    }
  };
  Receiver receive() { return Receiver{*this, sem_.acquire()}; }

  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }

 private:
  Semaphore sem_;
  Fifo<T> items_;
};

}  // namespace nistream::sim
