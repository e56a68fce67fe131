#include "dwcs/hierarchical.hpp"

#include <cassert>

#include "dwcs/shard_exec.hpp"

namespace nistream::dwcs {

HierarchicalScheduler::HierarchicalScheduler(const StreamTable& table,
                                             const Comparator& cmp,
                                             CostHook& hook, SimAddr base,
                                             const HierarchicalParams& params,
                                             PolicyKind policy)
    : table_{table},
      cmp_{cmp},
      hook_{&hook},
      charged_{hook.accounted()},
      hop_cycles_{params.hop_cycles},
      policy_{policy},
      root_pick_{RootWinnerLess{this}, hook,
                 base + params.shards * kCoreStride},
      root_deadline_{RootDeadlineLess{this}, hook,
                     base + params.shards * kCoreStride + 0x10000} {
  const std::uint32_t n = params.shards == 0 ? 1 : params.shards;
  cores_.reserve(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    cores_.push_back(make_core(base + static_cast<SimAddr>(s) * kCoreStride));
  }
  winner_.assign(n, kInvalidStream);
  edl_.assign(n, kInvalidStream);
  population_.assign(n, 0);
  dirty_.assign(n, 0);
  dirty_list_.reserve(n);  // at most one entry per shard: allocation-free
  root_pick_.reserve(n);
  root_deadline_.reserve(n);
}

std::unique_ptr<ScheduleRepr> HierarchicalScheduler::make_core(
    SimAddr core_base) {
  const auto core = [&](auto rank) -> std::unique_ptr<ScheduleRepr> {
    return std::make_unique<PifoRepr<decltype(rank)>>(table_, rank, *hook_,
                                                      core_base, &positions_);
  };
  // A stateful rank is copied from the root's, so every core keeps its
  // ledger (cycle position, clock) in the one shared state.
  switch (policy_) {
    case PolicyKind::kDwcs: return core(DwcsRank{&cmp_});
    case PolicyKind::kEdf: return core(EdfRank{});
    case PolicyKind::kStaticPriority: return core(StaticPriorityRank{});
    case PolicyKind::kRoundRobin: return core(rr_);
    case PolicyKind::kWfq: return core(wfq_);
  }
  return nullptr;
}

bool HierarchicalScheduler::winner_precedes(StreamId a, StreamId b) const {
  const auto by = [&](const auto& rank) {
    return rank.precedes(table_.view(a), a, table_.view(b), b);
  };
  switch (policy_) {
    case PolicyKind::kDwcs: return by(DwcsRank{&cmp_});
    case PolicyKind::kEdf: return by(EdfRank{});
    case PolicyKind::kStaticPriority: return by(StaticPriorityRank{});
    case PolicyKind::kRoundRobin: return by(rr_);
    case PolicyKind::kWfq: return by(wfq_);
  }
  return a < b;
}

void HierarchicalScheduler::on_charge(StreamId id) {
  // Forward to the owning core's policy state; the scheduler's follow-up
  // update()/remove() of the same stream refreshes the shard and root.
  const auto s = shard_of(id, shards());
  std::int64_t t0 = 0;
  if (trace_ != nullptr) {
    meter_->set_context(s);
    t0 = meter_->total();
  }
  cores_[s]->on_charge(id);
  if (trace_ != nullptr) {
    trace_->mutation(s, id, meter_->total() - t0, 0);
  }
}

void HierarchicalScheduler::refresh(std::uint32_t s, StreamId mutated) {
  const StreamId old_w = winner_[s];
  const StreamId old_e = edl_[s];
  const auto w = cores_[s]->pick();
  const StreamId new_w = w ? *w : kInvalidStream;
  const StreamId new_e =
      w ? *cores_[s]->earliest_deadline() : kInvalidStream;

  // Caches first, root sifts second: the root comparators read winner_/edl_
  // through `this`, so both entries must hold the new ids before any compare
  // fires.
  winner_[s] = new_w;
  edl_[s] = new_e;

  bool root_changed = false;
  if (new_w == kInvalidStream) {
    if (old_w != kInvalidStream) {
      // The core went idle; retire both of its root entries.
      root_pick_.erase(s);
      root_deadline_.erase(s);
      root_changed = true;
    }
  } else if (old_w == kInvalidStream) {
    // The core came alive; enter the root arbiter.
    root_pick_.push(s);
    root_deadline_.push(s);
    root_changed = true;
  } else {
    // Re-sift only the entries the mutation could have changed: a new id,
    // or the cached stream itself mutated (its key changed under the root).
    if (new_w != old_w || mutated == new_w) {
      root_pick_.update(s);
      root_changed = true;
    }
    if (new_e != old_e || mutated == new_e) {
      root_deadline_.update(s);
      root_changed = true;
    }
  }

  // One winner-update message per mutation that changed what the root sees:
  // the fixed-latency on-chip hop of the distributed-NP interconnect model.
  // Single-core boards (1 shard) have no interconnect to cross.
  if (root_changed && charged_ && hop_cycles_ > 0 && cores_.size() > 1) {
    hook_->cycles(hop_cycles_);
    ++hops_charged_;
  }
}

void HierarchicalScheduler::flush_dirty() {
  for (const auto s : dirty_list_) {
    dirty_[s] = 0;
    const StreamId old_w = winner_[s];
    const auto w = cores_[s]->pick();
    const StreamId new_w = w ? *w : kInvalidStream;
    winner_[s] = new_w;
    edl_[s] = w ? *cores_[s]->earliest_deadline() : kInvalidStream;
    if (new_w == kInvalidStream) {
      if (old_w != kInvalidStream) {
        root_pick_.erase(s);
        root_deadline_.erase(s);
      }
    } else if (old_w == kInvalidStream) {
      root_pick_.push(s);
      root_deadline_.push(s);
    } else {
      // Any number of mutations may have landed since the last repair; both
      // cached keys may have changed even when the cached ids did not, so
      // re-sift unconditionally (an in-place update of an unmoved entry is
      // two compares on an N-entry heap).
      root_pick_.update(s);
      root_deadline_.update(s);
    }
  }
  dirty_list_.clear();
}

void HierarchicalScheduler::insert(StreamId id) {
  const auto s = shard_of(id, shards());
  std::int64_t t0 = 0;
  if (trace_ != nullptr) {
    meter_->set_context(s);
    t0 = meter_->total();
  }
  cores_[s]->insert(id);
  ++population_[s];
  const std::int64_t t1 = trace_ != nullptr ? meter_->total() : 0;
  if (charged_) {
    refresh(s, id);
  } else {
    mark_dirty(s);
  }
  if (trace_ != nullptr) {
    trace_->mutation(s, id, t1 - t0, meter_->total() - t1);
  }
}

void HierarchicalScheduler::remove(StreamId id) {
  const auto s = shard_of(id, shards());
  std::int64_t t0 = 0;
  if (trace_ != nullptr) {
    meter_->set_context(s);
    t0 = meter_->total();
  }
  cores_[s]->remove(id);
  assert(population_[s] > 0);
  --population_[s];
  const std::int64_t t1 = trace_ != nullptr ? meter_->total() : 0;
  if (charged_) {
    refresh(s, id);
  } else {
    mark_dirty(s);
  }
  if (trace_ != nullptr) {
    trace_->mutation(s, id, t1 - t0, meter_->total() - t1);
  }
}

void HierarchicalScheduler::update(StreamId id) {
  const auto s = shard_of(id, shards());
  std::int64_t t0 = 0;
  if (trace_ != nullptr) {
    meter_->set_context(s);
    t0 = meter_->total();
  }
  cores_[s]->update(id);
  const std::int64_t t1 = trace_ != nullptr ? meter_->total() : 0;
  if (charged_) {
    refresh(s, id);
  } else {
    mark_dirty(s);
  }
  if (trace_ != nullptr) {
    trace_->mutation(s, id, t1 - t0, meter_->total() - t1);
  }
}

void HierarchicalScheduler::reserve(std::size_t n) {
  // The shared position arrays are indexed by stream id: n entries each.
  if (positions_.rank.size() < n) positions_.rank.resize(n, -1);
  if (positions_.deadline.size() < n) positions_.deadline.resize(n, -1);
  // Hash sharding is balanced to within a few sqrt(n/N); a 1/4 slack on the
  // expected shard size makes growth-free setup the common case without
  // reserving N times the population.
  const std::size_t per_core = (n + cores_.size() - 1) / cores_.size();
  for (auto& core : cores_) core->reserve(per_core + per_core / 4 + 8);
}

std::optional<StreamId> HierarchicalScheduler::pick() {
  if (!dirty_list_.empty()) flush_dirty();
  if (root_pick_.empty()) return std::nullopt;
  return winner_[root_pick_.top_unchecked()];
}

std::optional<StreamId> HierarchicalScheduler::earliest_deadline() {
  if (!dirty_list_.empty()) flush_dirty();
  if (root_deadline_.empty()) return std::nullopt;
  return edl_[root_deadline_.top_unchecked()];
}

}  // namespace nistream::dwcs
