// Tests for the DWCS precedence rules under all three arithmetic modes.
#include "dwcs/comparator.hpp"

#include <gtest/gtest.h>

#include "sim/random.hpp"

namespace nistream::dwcs {

// gtest prints each parameter into its test's listed name; without a printer
// an ArithMode prints as its bytes.
void PrintTo(ArithMode mode, std::ostream* os) {
  constexpr const char* kNames[] = {"fixed", "softfp", "native"};
  *os << kNames[static_cast<int>(mode)];
}

namespace {

StreamView view(sim::Time deadline, std::int64_t x, std::int64_t y) {
  StreamView v;
  v.next_deadline = deadline;
  v.current = {x, y};
  return v;
}

class ComparatorAllModes : public ::testing::TestWithParam<ArithMode> {
 protected:
  Comparator cmp{GetParam(), null_cost_hook()};
};

TEST_P(ComparatorAllModes, Rule1EarliestDeadlineFirst) {
  const auto a = view(sim::Time::ms(10), 3, 4);  // loose tolerance
  const auto b = view(sim::Time::ms(20), 0, 4);  // tight tolerance, later
  EXPECT_TRUE(cmp.precedes(a, 0, b, 1));  // deadline dominates tolerance
  EXPECT_FALSE(cmp.precedes(b, 1, a, 0));
}

TEST_P(ComparatorAllModes, Rule2LowestToleranceOnTies) {
  const auto a = view(sim::Time::ms(10), 1, 4);   // W' = 0.25
  const auto b = view(sim::Time::ms(10), 1, 2);   // W' = 0.5
  EXPECT_TRUE(cmp.precedes(a, 1, b, 0));  // lower W' wins despite higher id
  EXPECT_FALSE(cmp.precedes(b, 0, a, 1));
}

TEST_P(ComparatorAllModes, Rule3ZeroTolerancesByDenominator) {
  const auto a = view(sim::Time::ms(10), 0, 8);
  const auto b = view(sim::Time::ms(10), 0, 3);
  EXPECT_TRUE(cmp.precedes(a, 1, b, 0));  // higher y' more urgent
  EXPECT_FALSE(cmp.precedes(b, 0, a, 1));
}

TEST_P(ComparatorAllModes, Rule4EqualNonzeroByNumerator) {
  const auto a = view(sim::Time::ms(10), 1, 2);   // 1/2
  const auto b = view(sim::Time::ms(10), 2, 4);   // 2/4 == 1/2
  EXPECT_TRUE(cmp.precedes(a, 1, b, 0));  // lower x' (tighter window) wins
  EXPECT_FALSE(cmp.precedes(b, 0, a, 1));
}

TEST_P(ComparatorAllModes, Rule5StableIdOrder) {
  const auto a = view(sim::Time::ms(10), 1, 2);
  const auto b = view(sim::Time::ms(10), 1, 2);
  EXPECT_TRUE(cmp.precedes(a, 0, b, 1));
  EXPECT_FALSE(cmp.precedes(b, 1, a, 0));
}

TEST_P(ComparatorAllModes, TotalOrderAntisymmetry) {
  // precedes must be a strict weak ordering: irreflexive and antisymmetric
  // over a random population.
  sim::Rng rng{99};
  std::vector<std::pair<StreamView, StreamId>> pop;
  for (StreamId i = 0; i < 40; ++i) {
    const auto y = 1 + static_cast<std::int64_t>(rng.below(8));
    const auto x = static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(y) + 1));
    pop.emplace_back(
        view(sim::Time::ms(static_cast<double>(10 * rng.below(3))), x, y), i);
  }
  for (const auto& [va, ia] : pop) {
    EXPECT_FALSE(cmp.precedes(va, ia, va, ia));
    for (const auto& [vb, ib] : pop) {
      if (ia == ib) continue;
      EXPECT_NE(cmp.precedes(va, ia, vb, ib), cmp.precedes(vb, ib, va, ia))
          << "streams " << ia << " and " << ib;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, ComparatorAllModes,
                         ::testing::Values(ArithMode::kFixedPoint,
                                           ArithMode::kSoftFloat,
                                           ArithMode::kNativeFloat),
                         [](const auto& param_info) {
                           return ::testing::PrintToString(param_info.param);
                         });

// §4.2: "Using the fixed point version does not affect the quality of
// scheduling" — all three arithmetic modes must produce identical decisions
// over the DWCS domain (small integer window constraints).
TEST(ComparatorEquivalence, AllModesAgreeOnDwcsDomain) {
  Comparator fixed{ArithMode::kFixedPoint, null_cost_hook()};
  Comparator soft{ArithMode::kSoftFloat, null_cost_hook()};
  Comparator native{ArithMode::kNativeFloat, null_cost_hook()};
  sim::Rng rng{123};
  for (int i = 0; i < 50000; ++i) {
    const auto ya = 1 + static_cast<std::int64_t>(rng.below(64));
    const auto yb = 1 + static_cast<std::int64_t>(rng.below(64));
    const auto xa = static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(ya) + 1));
    const auto xb = static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(yb) + 1));
    const auto a = view(sim::Time::ms(10), xa, ya);
    const auto b = view(sim::Time::ms(10), xb, yb);
    const bool f = fixed.precedes(a, 0, b, 1);
    EXPECT_EQ(f, soft.precedes(a, 0, b, 1))
        << xa << "/" << ya << " vs " << xb << "/" << yb;
    EXPECT_EQ(f, native.precedes(a, 0, b, 1))
        << xa << "/" << ya << " vs " << xb << "/" << yb;
  }
}

// The cost hook must see integer ops in fixed mode and float ops otherwise.
struct OpCounter final : CostHook {
  int int_ops = 0, float_ops = 0;
  void arith_int(Op, int n) override { int_ops += n; }
  void arith_float(Op, int n) override { float_ops += n; }
};

TEST(ComparatorCosts, FixedModeUsesIntegerOps) {
  OpCounter counter;
  Comparator cmp{ArithMode::kFixedPoint, counter};
  (void)cmp.cmp_tolerance({1, 2}, {3, 4});
  EXPECT_GT(counter.int_ops, 0);
  EXPECT_EQ(counter.float_ops, 0);
}

TEST(ComparatorCosts, FloatModesUseFloatOps) {
  for (ArithMode m : {ArithMode::kSoftFloat, ArithMode::kNativeFloat}) {
    OpCounter counter;
    Comparator cmp{m, counter};
    (void)cmp.cmp_tolerance({1, 2}, {3, 4});
    EXPECT_EQ(counter.int_ops, 0);
    EXPECT_GT(counter.float_ops, 0);
  }
}

}  // namespace
}  // namespace nistream::dwcs
