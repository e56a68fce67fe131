// Fixed-capacity inline callable for engine events.
//
// Every simulated event used to ride in a std::function<void()>, which heap-
// allocates whenever the capture outgrows the small-buffer optimisation and
// always pays a type-erased dispatch. InlineEvent stores the capture inline
// in the event slot itself — the slab recycles the storage along with the
// slot, so scheduling an event allocates nothing, ever. There is deliberately
// NO heap fallback: a capture that does not fit is a compile error, because a
// silent fallback would put an allocation back on the hot path exactly where
// it is least visible.
//
// Captures may hold non-trivial members (shared_ptr payloads, std::function
// callbacks); moves and destruction dispatch through a per-type ops table,
// one pointer per event.
//
// The budget is 48 bytes at 8-byte alignment, so an event slot is 80 bytes
// (sim::Engine). A storm arms one event per client at t = 0, so every byte
// here is paid ~100k times. 48 bytes hold the largest capture the stack
// needs: an endpoint's stack-cost event, which is the switch pointer and
// the port address (net::detail::schedule_while_attached) around a this-
// pointer, a port address and one shared_ptr. Anything bigger waits behind
// a pointer: a UDP datagram rides in its pooled packet box, and an I2O
// channel queues its messages and captures only itself.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace nistream::sim {

class InlineEvent {
 public:
  /// Capture budget (see the header comment). Raising it grows every event
  /// slot, so shrink the capture before reaching for this constant.
  static constexpr std::size_t kCaptureBytes = 48;
  /// Capture alignment: pointers and 64-bit integers, nothing wider.
  static constexpr std::size_t kCaptureAlign = alignof(void*);

  InlineEvent() = default;

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, InlineEvent> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  InlineEvent(F&& fn) {  // NOLINT(google-explicit-constructor)
    using Fn = std::remove_cvref_t<F>;
    static_assert(sizeof(Fn) <= kCaptureBytes,
                  "event capture exceeds InlineEvent::kCaptureBytes — shrink "
                  "the capture (box large state behind a pointer); there is "
                  "no heap fallback by design");
    static_assert(alignof(Fn) <= kCaptureAlign,
                  "over-aligned event captures are not supported");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "event captures must be nothrow-movable (slots relocate "
                  "when the slab grows)");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
    ops_ = &OpsFor<Fn>::ops;
  }

  InlineEvent(InlineEvent&& other) noexcept : ops_{other.ops_} {
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  InlineEvent& operator=(InlineEvent&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(storage_, other.storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineEvent(const InlineEvent&) = delete;
  InlineEvent& operator=(const InlineEvent&) = delete;

  ~InlineEvent() { reset(); }

  /// Destroy the stored capture (no-op when empty).
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  /// Invoke the stored callable. Precondition: non-empty.
  void operator()() { ops_->invoke(storage_); }

 private:
  struct Ops {
    void (*invoke)(void* self);
    /// Move-construct *dst from *src, then destroy *src.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <typename Fn>
  struct OpsFor {
    static void invoke(void* self) { (*static_cast<Fn*>(self))(); }
    static void relocate(void* dst, void* src) noexcept {
      ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
      static_cast<Fn*>(src)->~Fn();
    }
    static void destroy(void* self) noexcept { static_cast<Fn*>(self)->~Fn(); }
    static constexpr Ops ops{&invoke, &relocate, &destroy};
  };

  alignas(kCaptureAlign) std::byte storage_[kCaptureBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace nistream::sim
