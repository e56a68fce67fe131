// sim::Fifo — the queue every idle simulation object can afford.
//
// A vector plus a head index. It allocates nothing until the first push (a
// std::deque allocates its map and a first block on construction, which is
// 576 bytes per idle sender or mailbox), reuses its buffer once it has grown
// to the high-water mark, and pops in O(1). Popping moves the element out, so
// whatever the element owned leaves the queue with it; the husks left in the
// consumed prefix are reclaimed when the queue drains or when a push finds the
// buffer full and at least half of it consumed.
//
// Iteration runs over the live elements, oldest first (a TcpLite sender walks
// its window that way).
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace nistream::sim {

template <typename T>
class Fifo {
 public:
  using iterator = typename std::vector<T>::iterator;
  using const_iterator = typename std::vector<T>::const_iterator;

  void push_back(T v) {
    // Compacting only when half the buffer is consumed keeps pushes O(1)
    // amortized: a full buffer with a short consumed prefix grows instead.
    if (head_ != 0 && items_.size() == items_.capacity() &&
        2 * head_ >= items_.size()) {
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    items_.push_back(std::move(v));
  }

  T pop_front() {
    assert(!empty());
    T v = std::move(items_[head_++]);
    if (head_ == items_.size()) clear();
    return v;
  }

  [[nodiscard]] T& front() {
    assert(!empty());
    return items_[head_];
  }

  /// Drop every element; the buffer is kept for the next push.
  void clear() {
    items_.clear();
    head_ = 0;
  }

  [[nodiscard]] bool empty() const { return head_ == items_.size(); }
  [[nodiscard]] std::size_t size() const { return items_.size() - head_; }

  [[nodiscard]] iterator begin() {
    return items_.begin() + static_cast<std::ptrdiff_t>(head_);
  }
  [[nodiscard]] iterator end() { return items_.end(); }
  [[nodiscard]] const_iterator begin() const {
    return items_.begin() + static_cast<std::ptrdiff_t>(head_);
  }
  [[nodiscard]] const_iterator end() const { return items_.end(); }

 private:
  std::vector<T> items_;
  std::size_t head_ = 0;  // first live element; [0, head_) is consumed
};

}  // namespace nistream::sim
