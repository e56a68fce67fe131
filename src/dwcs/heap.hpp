// Handle-based binary min-heap of stream ids with update-key.
//
// Both heaps of Figure 4(a) — the deadline heap and the loss-tolerance heap —
// are instances of this structure with different comparators. Positions are
// tracked per stream id so a key change (window adjustment, deadline advance)
// re-sifts in O(log n) without a search.
//
// The comparator is a template parameter, not a std::function: every compare
// on the sift paths is a direct (typically inlined) call, which is what keeps
// schedule_next wall-clock fast at 10k-100k streams. Use a named comparator
// struct (see repr.cpp) or std::function when type erasure is genuinely
// needed (tests).
//
// Every element the sift path touches is charged as a memory word at the
// heap's simulated base address, so the heap's cache behaviour shows up in
// the Table 1/2 numbers exactly as the descriptor loops do.
//
// The position array is indexed by stream id, so it is as long as the
// largest id the heap has held, however few streams it holds. Heaps whose
// stream sets never overlap may share one array (HeapPositions below): the
// hierarchical scheduler's per-core heaps of one kind do, since a stream
// sits in exactly one core.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "dwcs/cost.hpp"
#include "dwcs/types.hpp"

namespace nistream::dwcs {

/// Each stream's index in its heap's array, by stream id; -1 when absent.
/// Grown (never shrunk) to the largest id pushed or reserved.
using HeapPositions = std::vector<std::int32_t>;

template <class Less>
class IndexedHeap {
 public:
  /// `shared_positions`, when given, is used instead of the heap's own
  /// position array. Every heap sharing it must hold a disjoint set of
  /// streams, and the array must outlive them.
  IndexedHeap(Less less, CostHook& hook, SimAddr base_addr,
              HeapPositions* shared_positions = nullptr)
      : less_{std::move(less)},
        hook_{&hook},
        charged_{hook.accounted()},
        base_{base_addr},
        pos_{shared_positions != nullptr ? shared_positions : &own_pos_} {}
  // pos_ may point at own_pos_.
  IndexedHeap(const IndexedHeap&) = delete;
  IndexedHeap& operator=(const IndexedHeap&) = delete;

  [[nodiscard]] bool empty() const { return data_.empty(); }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  /// In this heap, not merely in one that shares its positions.
  [[nodiscard]] bool contains(StreamId id) const {
    const HeapPositions& pos = *pos_;
    return id < pos.size() && pos[id] >= 0 &&
           static_cast<std::size_t>(pos[id]) < data_.size() &&
           data_[static_cast<std::size_t>(pos[id])] == id;
  }

  /// Pre-size the backing arrays for `n` streams so the growth phase of a
  /// large run never reallocates mid-decision.
  void reserve(std::size_t n) {
    data_.reserve(n);
    if (pos_->size() < n) pos_->resize(n, -1);
  }

  void push(StreamId id) {
    assert(!contains(id));
    HeapPositions& pos = *pos_;
    if (id >= pos.size()) pos.resize(id + 1, -1);
    data_.push_back(id);
    pos[id] = static_cast<std::int32_t>(data_.size() - 1);
    touch(data_.size() - 1);
    sift_up(data_.size() - 1);
  }

  void erase(StreamId id) {
    assert(contains(id));
    HeapPositions& pos = *pos_;
    const auto i = static_cast<std::size_t>(pos[id]);
    swap_at(i, data_.size() - 1);
    data_.pop_back();
    pos[id] = -1;
    if (i < data_.size()) {
      if (!sift_up(i)) sift_down(i);
    }
  }

  /// Re-establish heap order after `id`'s key changed.
  void update(StreamId id) {
    assert(contains(id));
    const auto i = static_cast<std::size_t>((*pos_)[id]);
    if (!sift_up(i)) sift_down(i);
  }

  [[nodiscard]] std::optional<StreamId> top() const {
    if (data_.empty()) return std::nullopt;
    touch(0);
    return data_[0];
  }

  /// top() for callers that already know the heap is non-empty; skips the
  /// optional wrapper on the hot path. Precondition: !empty().
  [[nodiscard]] StreamId top_unchecked() const {
    assert(!data_.empty());
    touch(0);
    return data_[0];
  }

  /// Raw level-order contents (used by the dual-heap tie collection; the
  /// caller charges its own traversal costs via less_/touch during compares).
  [[nodiscard]] const std::vector<StreamId>& raw() const { return data_; }

  /// Charge one heap-entry access (exposed for traversals done by callers).
  /// The null hook discards charges, so the virtual call is skipped outright
  /// via the cached `charged_` flag — on wall-clock runs the sift paths make
  /// zero virtual calls.
  void touch(std::size_t idx) const {
    if (charged_) hook_->mem(base_ + static_cast<SimAddr>(idx) * 8);
  }

 private:
  // Both sifts move a hole instead of swapping at every level: the moving
  // element is held in a register and written (with its pos_ entry) exactly
  // once at its final position, so each level costs one data store and one
  // pos_ store instead of a full swap plus two pos_ updates. The charged
  // access stream is unchanged — the same touch() pairs fire at the same
  // points the swap-based implementation charged them, and the compare
  // sequence is value-identical (data_[i] held the moving element at each
  // level in the old code; `moving` holds it here).

  bool sift_up(std::size_t i) {
    HeapPositions& pos = *pos_;
    const StreamId moving = data_[i];
    bool moved = false;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      touch(i);
      touch(parent);
      if (!less_(moving, data_[parent])) break;
      touch(i);  // modeled swap traffic (was swap_at)
      touch(parent);
      data_[i] = data_[parent];
      pos[data_[i]] = static_cast<std::int32_t>(i);
      i = parent;
      moved = true;
    }
    if (moved) {
      data_[i] = moving;
      pos[moving] = static_cast<std::int32_t>(i);
    }
    return moved;
  }

  void sift_down(std::size_t i) {
    HeapPositions& pos = *pos_;
    const StreamId moving = data_[i];
    bool moved = false;
    for (;;) {
      const std::size_t l = 2 * i + 1, r = 2 * i + 2;
      std::size_t best = i;
      StreamId best_val = moving;
      touch(i);
      if (l < data_.size()) {
        touch(l);
        if (less_(data_[l], best_val)) {
          best = l;
          best_val = data_[l];
        }
      }
      if (r < data_.size()) {
        touch(r);
        if (less_(data_[r], best_val)) {
          best = r;
          best_val = data_[r];
        }
      }
      if (best == i) break;
      touch(i);  // modeled swap traffic (was swap_at)
      touch(best);
      data_[i] = best_val;
      pos[best_val] = static_cast<std::int32_t>(i);
      i = best;
      moved = true;
    }
    if (moved) {
      data_[i] = moving;
      pos[moving] = static_cast<std::int32_t>(i);
    }
  }

  void swap_at(std::size_t a, std::size_t b) {
    if (a == b) return;
    touch(a);
    touch(b);
    std::swap(data_[a], data_[b]);
    (*pos_)[data_[a]] = static_cast<std::int32_t>(a);
    (*pos_)[data_[b]] = static_cast<std::int32_t>(b);
  }

  Less less_;
  CostHook* hook_;
  bool charged_;
  SimAddr base_;
  std::vector<StreamId> data_;
  HeapPositions own_pos_;  // unused when the positions are shared
  HeapPositions* pos_;
};

}  // namespace nistream::dwcs
