// sim::HandleTable — the one store for objects named by a small integer:
// engine event slots, switch ports and queued frames, the front door's
// connections and pumps.
//
//  * Storage is paged. A page is never moved or freed while the table lives,
//    so a reference to a live element stays valid until it is erased.
//    Allocating a page constructs and touches nothing.
//  * emplace() reuses the most recently erased index (LIFO), else appends,
//    so every index follows from the order of emplaces and erases alone.
//  * erase() destroys the element, bumps the slot's 32-bit generation and
//    frees the index, unless the generation reaches the table's limit: then
//    the slot is retired, so no (index, generation) names two occupants.
//  * A moved-from table is empty. There is no iteration.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <stdexcept>
#include <utility>
#include <vector>

namespace nistream::sim {

/// One occupant of a HandleTable slot. The default value names nothing.
struct Handle {
  static constexpr std::uint32_t kNone = 0xFFFFFFFF;
  std::uint32_t index = kNone;
  std::uint32_t generation = 0;

  explicit operator bool() const { return index != kNone; }
  friend bool operator==(const Handle&, const Handle&) = default;
};

template <typename T>
class HandleTable {
 public:
  static constexpr std::uint32_t kPageSlots = 1024;
  static constexpr std::uint32_t kNoLimit = Handle::kNone;

  /// Indices stay below `index_limit` (emplacing past it throws
  /// std::length_error), generations below `generation_limit`.
  explicit HandleTable(std::uint32_t index_limit = kNoLimit,
                       std::uint32_t generation_limit = kNoLimit)
      : index_limit_{index_limit}, generation_limit_{generation_limit} {}
  HandleTable(HandleTable&& other) noexcept
      : pages_{std::move(other.pages_)},
        free_{std::move(other.free_)},
        size_{std::exchange(other.size_, 0)},
        live_{std::exchange(other.live_, 0)},
        index_limit_{other.index_limit_},
        generation_limit_{other.generation_limit_} {}
  HandleTable(const HandleTable&) = delete;
  HandleTable& operator=(const HandleTable&) = delete;
  ~HandleTable() {
    for (std::uint32_t i = 0; i < size_; ++i) {
      if (std::exchange(meta(i).live, false)) element(i)->~T();
    }
  }

  /// Construct a T from `args` in a free slot; returns its index.
  template <typename... Args>
  std::uint32_t emplace(Args&&... args) {
    const std::uint32_t i = free_.empty() ? fresh_index() : free_.back();
    ::new (static_cast<void*>(element(i))) T(std::forward<Args>(args)...);
    if (i == size_) {
      meta(i).generation = 0;
      ++size_;
    } else {
      free_.pop_back();
    }
    meta(i).live = true;
    ++live_;
    return i;
  }

  /// The slot is dead before ~T runs and free only after it returns, so a
  /// destructor that reaches back into the table sees neither.
  void erase(std::uint32_t i) {
    Meta& m = meta(i);
    assert(m.live);
    m.live = false;
    --live_;
    const bool retire = ++m.generation == generation_limit_;
    element(i)->~T();
    if (!retire) free_.push_back(i);
  }

  [[nodiscard]] T& operator[](std::uint32_t i) {
    assert(i < size_ && meta(i).live);
    return *element(i);
  }
  [[nodiscard]] const T& operator[](std::uint32_t i) const {
    assert(i < size_ && meta(i).live);
    return *element(i);
  }

  /// The generation of slot `i`'s occupant, or of its next one while free.
  [[nodiscard]] std::uint32_t generation(std::uint32_t i) const {
    assert(i < size_);
    return meta(i).generation;
  }
  /// True while (`i`, `gen`) names the element living in slot `i`.
  [[nodiscard]] bool live(std::uint32_t i, std::uint32_t gen) const {
    return i < size_ && meta(i).live && meta(i).generation == gen;
  }

  /// Slots ever made (live, free or retired): the most ever live at once,
  /// plus any retired.
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t live_count() const { return live_; }

 private:
  struct Meta { std::uint32_t generation; bool live; };
  struct Page {  // trivially constructible: allocating one initializes nothing
    alignas(T) std::byte bytes[kPageSlots][sizeof(T)];
    Meta meta[kPageSlots];
  };

  std::uint32_t fresh_index() {
    if (size_ == index_limit_) {
      throw std::length_error("HandleTable: index limit reached");
    }
    if (size_ % kPageSlots == 0) {
      pages_.push_back(std::make_unique_for_overwrite<Page>());
    }
    return size_;
  }
  [[nodiscard]] T* element(std::uint32_t i) const {
    return std::launder(reinterpret_cast<T*>(
        pages_[i / kPageSlots]->bytes[i % kPageSlots]));
  }
  [[nodiscard]] Meta& meta(std::uint32_t i) const {
    return pages_[i / kPageSlots]->meta[i % kPageSlots];
  }

  std::vector<std::unique_ptr<Page>> pages_;
  std::vector<std::uint32_t> free_;  // erased indices; back() goes first
  std::uint32_t size_ = 0;
  std::size_t live_ = 0;
  std::uint32_t index_limit_;
  std::uint32_t generation_limit_;
};

}  // namespace nistream::sim
