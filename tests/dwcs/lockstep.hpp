// Shared lock-step harness for the DWCS decision-identity tests: a stream
// table that applies rule (A) the way DwcsScheduler does, and a loop that
// runs a reference repr and a candidate through one randomized workload.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "dwcs/repr.hpp"
#include "sim/random.hpp"

namespace nistream::dwcs {

class FakeTable final : public StreamTable {
 public:
  FakeTable() : StreamTable{views_} {}
  StreamView& mutable_view(StreamId id) { return views_[id]; }
  StreamId add(const StreamView& v) {
    views_.push_back(v);
    originals_.push_back(v.current);
    return static_cast<StreamId>(views_.size() - 1);
  }
  /// Replaces a stream's view; its window becomes the original.
  void reset(StreamId id, const StreamView& v) {
    views_[id] = v;
    originals_[id] = v.current;
  }
  /// Rule (A) as DwcsScheduler::adjust_serviced applies it: an on-time
  /// service shrinks y', and a completed window (x' == y') restarts at the
  /// original one, so no view reaches 0/0.
  void rule_a(StreamId id) {
    auto& w = views_[id].current;
    if (w.y > w.x) --w.y;
    if (w.y == w.x) w = originals_[id];
  }
  [[nodiscard]] std::size_t size() const { return views_.size(); }

 private:
  std::vector<StreamView> views_;
  std::vector<WindowConstraint> originals_;
};

inline StreamView random_view(sim::Rng& rng, sim::Time now) {
  StreamView v;
  const std::int64_t y = 1 + static_cast<std::int64_t>(rng.below(6));
  v.current = {static_cast<std::int64_t>(
                   rng.below(static_cast<std::uint64_t>(y + 1))),
               y};
  // Coarse deadline grid so ties are the common case and rule 5 decides.
  v.next_deadline =
      now + sim::Time::ms(10 * (1 + static_cast<int>(rng.below(4))));
  v.head_enqueued_at = now;
  return v;
}

/// Drive `reference` and `candidate` in lock-step through a randomized
/// insert/remove/update/dispatch workload and assert pick() and
/// earliest_deadline() agree on every round. Dispatch follows the
/// scheduler's own mutation pattern, on_charge() included, so the charged
/// stream's re-sift happens through update() per the contract. Returns
/// rounds with a winner.
inline int run_lockstep(FakeTable& table, ScheduleRepr& reference,
                        ScheduleRepr& candidate, std::uint64_t seed,
                        const std::string& label) {
  sim::Rng rng{seed};
  std::vector<bool> present;
  sim::Time now = sim::Time::zero();
  const auto insert = [&](StreamId id) {
    reference.insert(id);
    candidate.insert(id);
    present[id] = true;
  };

  for (int i = 0; i < 32; ++i) {
    const auto id = table.add(random_view(rng, now));
    present.push_back(false);
    insert(id);
  }

  int decided = 0;
  for (int round = 0; round < 1500; ++round) {
    now += sim::Time::ms(1 + static_cast<double>(rng.below(5)));
    const auto op = rng.below(10);
    if (op == 0 && table.size() < 96) {
      const auto id = table.add(random_view(rng, now));
      present.push_back(false);
      insert(id);
    } else if (op == 1) {
      const auto id = static_cast<StreamId>(rng.below(table.size()));
      if (present[id]) {
        reference.remove(id);
        candidate.remove(id);
        present[id] = false;
      } else {
        table.reset(id, random_view(rng, now));
        insert(id);
      }
    }

    const auto p_ref = reference.pick();
    const auto p_cand = candidate.pick();
    EXPECT_EQ(p_cand, p_ref) << label << " seed " << seed << " round "
                             << round;
    EXPECT_EQ(candidate.earliest_deadline(), reference.earliest_deadline())
        << label << " seed " << seed << " round " << round;
    if (!p_ref || p_cand != p_ref) continue;

    // Dispatch the winner: charge, window adjustment, deadline advance,
    // then update both reprs — the scheduler's own mutation pattern.
    reference.on_charge(*p_ref);
    candidate.on_charge(*p_ref);
    table.rule_a(*p_ref);
    table.mutable_view(*p_ref).next_deadline +=
        sim::Time::ms(10 * (1 + static_cast<double>(rng.below(4))));
    reference.update(*p_ref);
    candidate.update(*p_ref);
    ++decided;
  }
  return decided;
}

}  // namespace nistream::dwcs
