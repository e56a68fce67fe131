// On-card memory accounting.
//
// The i960 RD ships with 4 MB (expandable to 36 MB); the paper's design
// keeps a *single copy* of each frame in card memory and passes descriptor
// addresses around to conserve it. MemoryPool enforces the capacity: it
// counts the bytes that queued frames hold and refuses a frame that would
// overflow the card.
#pragma once

#include <cassert>
#include <cstdint>

namespace nistream::hw {

class MemoryPool {
 public:
  explicit MemoryPool(std::uint64_t capacity_bytes)
      : capacity_{capacity_bytes} {}

  /// Reserve `bytes`; false (and nothing reserved) when the pool would
  /// overflow.
  bool allocate(std::uint64_t bytes) {
    if (used_ + bytes > capacity_) return false;
    used_ += bytes;
    return true;
  }

  /// Return `bytes` to the pool (caller pairs sizes with allocate()).
  void release(std::uint64_t bytes) {
    assert(bytes <= used_);
    used_ -= bytes;
  }

  [[nodiscard]] std::uint64_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t used() const { return used_; }
  [[nodiscard]] std::uint64_t available() const { return capacity_ - used_; }

 private:
  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
};

}  // namespace nistream::hw
