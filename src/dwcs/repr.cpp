#include "dwcs/repr.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <list>

#include "dwcs/dual_heap.hpp"
#include "dwcs/hierarchical.hpp"
#include "dwcs/pifo.hpp"

namespace nistream::dwcs {
namespace {

// DeadlineIdLess / ToleranceLess / FullLess live in pifo.hpp (derived from
// the rank structs) and DualHeapRepr in dual_heap.hpp (the tests build it as
// their reference). The remaining representations are single-board-only and
// stay private here.

/// Insertion-sorted list under the full comparator.
class SortedListRepr final : public ScheduleRepr {
 public:
  SortedListRepr(const StreamTable& table, const Comparator& cmp,
                 CostHook& hook, SimAddr base)
      : table_{table},
        cmp_{cmp},
        hook_{&hook},
        charged_{hook.accounted()},
        base_{base} {}

  void insert(StreamId id) override {
    auto it = list_.begin();
    std::size_t idx = 0;
    for (; it != list_.end(); ++it, ++idx) {
      if (charged_) hook_->mem(base_ + idx * 8);
      if (cmp_.precedes(table_.view(id), id, table_.view(*it), *it)) break;
    }
    list_.insert(it, id);
  }
  void remove(StreamId id) override { list_.remove(id); }
  void update(StreamId id) override {
    remove(id);
    insert(id);
  }
  std::optional<StreamId> pick() override {
    if (list_.empty()) return std::nullopt;
    if (charged_) hook_->mem(base_);
    return list_.front();
  }
  std::optional<StreamId> earliest_deadline() override {
    // The full order is deadline-major (rule 1), so the front has the
    // earliest deadline — but among deadline ties the contract is lowest id
    // (matching the heaps), not best tolerance, so scan the tied prefix.
    if (list_.empty()) return std::nullopt;
    const sim::Time dmin = table_.view(list_.front()).next_deadline;
    StreamId best = list_.front();
    std::size_t idx = 0;
    for (const StreamId s : list_) {
      if (charged_) hook_->mem(base_ + idx++ * 8);
      if (table_.view(s).next_deadline != dmin) break;
      best = std::min(best, s);
    }
    return best;
  }
  const char* name() const override { return "sorted-list"; }

 private:
  const StreamTable& table_;
  const Comparator& cmp_;
  CostHook* hook_;
  bool charged_;  // cached hook.accounted(); false only for the null hook
  SimAddr base_;
  std::list<StreamId> list_;
};

/// Arrival order of head packets; deliberately attribute-blind (paper
/// §3.1.1: "FCFS circular buffers"). earliest_deadline() still answers
/// truthfully so the late-drop machinery keeps working.
class FcfsRepr final : public ScheduleRepr {
 public:
  FcfsRepr(const StreamTable& table, CostHook& hook, SimAddr base)
      : table_{table}, hook_{&hook}, charged_{hook.accounted()}, base_{base} {}

  void insert(StreamId id) override { members_.push_back(id); }
  void remove(StreamId id) override { std::erase(members_, id); }
  void update(StreamId) override {}  // arrival order does not change
  void reserve(std::size_t n) override { members_.reserve(n); }

  std::optional<StreamId> pick() override {
    std::optional<StreamId> best;
    for (std::size_t i = 0; i < members_.size(); ++i) {
      if (charged_) hook_->mem(base_ + i * 8);
      const StreamId s = members_[i];
      if (!best || table_.view(s).head_enqueued_at <
                       table_.view(*best).head_enqueued_at) {
        best = s;
      }
    }
    return best;
  }

  std::optional<StreamId> earliest_deadline() override {
    std::optional<StreamId> best;
    for (std::size_t i = 0; i < members_.size(); ++i) {
      if (charged_) hook_->mem(base_ + i * 8);
      const StreamId s = members_[i];
      if (!best ||
          table_.view(s).next_deadline < table_.view(*best).next_deadline ||
          (table_.view(s).next_deadline == table_.view(*best).next_deadline &&
           s < *best)) {
        best = s;
      }
    }
    return best;
  }

  const char* name() const override { return "fcfs"; }

 private:
  const StreamTable& table_;
  CostHook* hook_;
  bool charged_;  // cached hook.accounted(); false only for the null hook
  SimAddr base_;
  std::vector<StreamId> members_;
};

/// Deadline-bucketed calendar queue: streams hash into day buckets by
/// deadline; pick scans the earliest non-empty day and breaks ties with the
/// full comparator. Bucket width trades bucket-scan length against
/// bucket-chain length.
///
/// The calendar is a circular bucket array (a "timing wheel"), not a
/// std::map: a day maps to bucket `day mod n_buckets`, entries carry their
/// day so colliding days share a bucket, and the earliest populated day is
/// found by walking forward from a cached lower bound (`min_day_`, the
/// classic calendar-queue year scan). The wheel doubles when load exceeds
/// two entries per bucket. Charged costs are unchanged from the map-based
/// implementation: only the entries of the minimum day are charged, in
/// insertion order, exactly as the old per-day vectors were; wheel
/// bookkeeping (collision skips, day scans, resizes) is host work.
class CalendarQueueRepr final : public ScheduleRepr {
 public:
  CalendarQueueRepr(const StreamTable& table, const Comparator& cmp,
                    CostHook& hook, SimAddr base,
                    sim::Time bucket_width = sim::Time::ms(10))
      : table_{table}, cmp_{cmp}, hook_{&hook}, charged_{hook.accounted()},
        base_{base}, width_ns_{bucket_width.raw_ns()}, buckets_{64} {}

  void insert(StreamId id) override {
    if (id >= day_of_stream_.size()) day_of_stream_.resize(id + 1, kAbsent);
    assert(day_of_stream_[id] == kAbsent);
    if (count_ + 1 > buckets_.size() * 2) grow(buckets_.size() * 2);
    const std::int64_t day = day_of(id);
    buckets_[index(day)].push_back({day, id});
    day_of_stream_[id] = day;
    if (count_ == 0 || day < min_day_) min_day_ = day;
    ++count_;
  }

  void remove(StreamId id) override {
    // Guarded: removing an id that was never inserted (or whose entry was
    // already evicted) is a no-op instead of an out-of-bounds index.
    if (id >= day_of_stream_.size() || day_of_stream_[id] == kAbsent) return;
    auto& bucket = buckets_[index(day_of_stream_[id])];
    std::erase_if(bucket, [id](const Entry& e) { return e.id == id; });
    day_of_stream_[id] = kAbsent;
    --count_;
  }

  void update(StreamId id) override {
    // A stream whose entry was already evicted (or never inserted) is
    // re-admitted under its current deadline rather than indexing a stale
    // bucket key.
    if (id >= day_of_stream_.size() || day_of_stream_[id] == kAbsent) {
      insert(id);
      return;
    }
    const std::int64_t day = day_of(id);
    if (day == day_of_stream_[id]) return;  // tolerance-only change
    remove(id);
    insert(id);
  }

  void reserve(std::size_t n) override {
    day_of_stream_.reserve(n);
    std::size_t target = buckets_.size();
    while (n > target * 2) target *= 2;
    if (target != buckets_.size()) grow(target);
  }

  std::optional<StreamId> pick() override {
    if (count_ == 0) return std::nullopt;
    advance_min_day();
    // The earliest day holds the earliest deadline, but the full winner
    // could be a deadline-tied stream in the same day only (rule 1 is
    // deadline-major), so one day scan suffices.
    StreamId best = kInvalidStream;
    std::size_t charged = 0;
    for (const Entry& e : buckets_[index(min_day_)]) {
      if (e.day != min_day_) continue;  // wheel collision from another year
      if (charged_) hook_->mem(base_ + charged++ * 8);
      if (best == kInvalidStream) {
        best = e.id;
      } else if (cmp_.precedes(table_.view(e.id), e.id, table_.view(best),
                               best)) {
        best = e.id;
      }
    }
    assert(best != kInvalidStream);
    return best;
  }

  std::optional<StreamId> earliest_deadline() override {
    if (count_ == 0) return std::nullopt;
    advance_min_day();
    StreamId best = kInvalidStream;
    std::size_t charged = 0;
    for (const Entry& e : buckets_[index(min_day_)]) {
      if (e.day != min_day_) continue;
      if (charged_) hook_->mem(base_ + charged++ * 8);
      if (best == kInvalidStream) {
        best = e.id;
        continue;
      }
      const auto ds = table_.view(e.id).next_deadline;
      const auto db = table_.view(best).next_deadline;
      if (ds < db || (ds == db && e.id < best)) best = e.id;
    }
    assert(best != kInvalidStream);
    return best;
  }

  const char* name() const override { return "calendar-queue"; }

 private:
  static constexpr std::int64_t kAbsent = std::numeric_limits<std::int64_t>::min();

  struct Entry {
    std::int64_t day;
    StreamId id;
  };

  [[nodiscard]] std::int64_t day_of(StreamId id) const {
    return table_.view(id).next_deadline.raw_ns() / width_ns_;
  }
  [[nodiscard]] std::size_t index(std::int64_t day) const {
    return static_cast<std::size_t>(day) & (buckets_.size() - 1);
  }

  /// Advance `min_day_` (a lower bound) to the earliest populated day.
  /// Precondition: count_ > 0.
  void advance_min_day() {
    const auto wheel = static_cast<std::int64_t>(buckets_.size());
    for (std::int64_t d = min_day_; d < min_day_ + wheel; ++d) {
      for (const Entry& e : buckets_[index(d)]) {
        if (e.day == d) {
          min_day_ = d;
          return;
        }
      }
    }
    // Every entry lives beyond one wheel revolution from the bound (sparse
    // deadlines): recompute exactly. Rare, O(n).
    std::int64_t best = std::numeric_limits<std::int64_t>::max();
    for (const auto& bucket : buckets_) {
      for (const Entry& e : bucket) best = std::min(best, e.day);
    }
    min_day_ = best;
  }

  void grow(std::size_t n_buckets) {
    std::vector<std::vector<Entry>> next{n_buckets};
    for (auto& bucket : buckets_) {
      for (const Entry& e : bucket) {
        next[static_cast<std::size_t>(e.day) & (n_buckets - 1)].push_back(e);
      }
    }
    buckets_ = std::move(next);
  }

  const StreamTable& table_;
  const Comparator& cmp_;
  CostHook* hook_;
  bool charged_;  // cached hook.accounted(); false only for the null hook
  SimAddr base_;
  std::int64_t width_ns_;
  std::vector<std::vector<Entry>> buckets_;  // size is a power of two
  std::vector<std::int64_t> day_of_stream_;  // kAbsent when not queued
  std::size_t count_ = 0;
  std::int64_t min_day_ = 0;
};

}  // namespace

const char* to_string(ReprKind kind) {
  switch (kind) {
    case ReprKind::kDualHeap: return "dual-heap";
    case ReprKind::kSortedList: return "sorted-list";
    case ReprKind::kFcfs: return "fcfs";
    case ReprKind::kCalendarQueue: return "calendar-queue";
    case ReprKind::kHierarchical: return "hierarchical";
    case ReprKind::kPifo: return "pifo";
  }
  return "?";
}

const char* to_string(PolicyKind policy) {
  switch (policy) {
    case PolicyKind::kDwcs: return "dwcs";
    case PolicyKind::kEdf: return "edf";
    case PolicyKind::kStaticPriority: return "static-priority";
    case PolicyKind::kRoundRobin: return "round-robin";
    case PolicyKind::kWfq: return "wfq";
  }
  return "?";
}

std::unique_ptr<ScheduleRepr> make_repr(ReprKind kind, const StreamTable& table,
                                        const Comparator& cmp, CostHook& hook,
                                        SimAddr heap_base,
                                        const HierarchicalParams& hier,
                                        PolicyKind policy) {
  switch (kind) {
    case ReprKind::kDualHeap:
      return std::make_unique<DualHeapRepr>(table, cmp, hook, heap_base);
    case ReprKind::kSortedList:
      return std::make_unique<SortedListRepr>(table, cmp, hook, heap_base);
    case ReprKind::kFcfs:
      return std::make_unique<FcfsRepr>(table, hook, heap_base);
    case ReprKind::kCalendarQueue:
      return std::make_unique<CalendarQueueRepr>(table, cmp, hook, heap_base);
    case ReprKind::kHierarchical:
      return std::make_unique<HierarchicalScheduler>(table, cmp, hook,
                                                     heap_base, hier, policy);
    case ReprKind::kPifo: {
      const auto pifo = [&](auto rank) -> std::unique_ptr<ScheduleRepr> {
        return std::make_unique<PifoRepr<decltype(rank)>>(table, rank, hook,
                                                          heap_base);
      };
      switch (policy) {
        case PolicyKind::kDwcs: return pifo(DwcsRank{&cmp});
        case PolicyKind::kEdf: return pifo(EdfRank{});
        case PolicyKind::kStaticPriority: return pifo(StaticPriorityRank{});
        case PolicyKind::kRoundRobin: return pifo(RoundRobinRank{});
        case PolicyKind::kWfq: return pifo(WfqRank{});
      }
      return nullptr;
    }
  }
  return nullptr;
}

}  // namespace nistream::dwcs
