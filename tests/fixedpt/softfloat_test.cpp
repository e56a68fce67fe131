// Tests for the software IEEE-754 binary32 emulation.
//
// The reference is the build machine's hardware float unit (x86 is IEEE
// round-to-nearest-even). For normal inputs whose true results are normal,
// the soft-float results must be bit-exact; cases where hardware produces a
// subnormal are skipped (our library flushes to zero, like the embedded
// libraries it models — covered by dedicated flush tests).
#include "fixedpt/softfloat.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "sim/random.hpp"

namespace nistream::fixedpt {
namespace {

bool is_subnormal_or_zero(float f) {
  return f == 0.0f || std::fpclassify(f) == FP_SUBNORMAL;
}

float bits_to_float(std::uint32_t b) { return std::bit_cast<float>(b); }

/// Random normal-range float (exponent biased well away from the edges so
/// products/quotients stay normal most of the time).
float random_normal_float(sim::Rng& rng) {
  const std::uint32_t sign = static_cast<std::uint32_t>(rng.below(2)) << 31;
  const std::uint32_t exp = static_cast<std::uint32_t>(64 + rng.below(128)) << 23;
  const std::uint32_t frac = static_cast<std::uint32_t>(rng.below(1u << 23));
  return bits_to_float(sign | exp | frac);
}

TEST(SoftFloat, RoundTripExactValues) {
  for (float v : {0.0f, 1.0f, -1.0f, 0.5f, 3.25f, 1e10f, -7.5e-10f}) {
    EXPECT_EQ(SoftFloat::from_float(v).to_float(), v);
  }
}

TEST(SoftFloat, SubnormalInputsFlushToZero) {
  const float tiny = std::numeric_limits<float>::denorm_min();
  EXPECT_TRUE(SoftFloat::from_float(tiny).is_zero());
  EXPECT_TRUE(SoftFloat::from_float(-tiny).is_zero());
  EXPECT_FALSE(SoftFloat::from_float(std::numeric_limits<float>::min()).is_zero());
}

TEST(SoftFloat, FromInt) {
  for (std::int32_t v : {0, 1, -1, 7, -100, 16777216, -16777217, INT32_MAX,
                         INT32_MIN}) {
    EXPECT_EQ(SoftFloat::from_int(v).to_float(), static_cast<float>(v))
        << "v=" << v;
  }
}

TEST(SoftFloat, SimpleArithmetic) {
  const auto a = SoftFloat::from_float(1.5f);
  const auto b = SoftFloat::from_float(2.25f);
  EXPECT_EQ((a + b).to_float(), 3.75f);
  EXPECT_EQ((b - a).to_float(), 0.75f);
  EXPECT_EQ((a * b).to_float(), 3.375f);
  EXPECT_EQ((b / a).to_float(), 1.5f);
}

TEST(SoftFloat, ExactCancellationGivesPositiveZero) {
  const auto a = SoftFloat::from_float(5.5f);
  const auto r = a - a;
  EXPECT_TRUE(r.is_zero());
  EXPECT_EQ(r.bits(), 0u);  // +0
}

TEST(SoftFloat, SignedZeroAddition) {
  const auto pz = SoftFloat::from_float(0.0f);
  const auto nz = SoftFloat::from_float(-0.0f);
  EXPECT_EQ((pz + nz).bits(), 0u);   // +0 + -0 = +0 (RNE)
  EXPECT_EQ((nz + nz).bits(), 0x80000000u);  // -0 + -0 = -0
  EXPECT_TRUE(pz == nz);
}

TEST(SoftFloat, InfinityAndNan) {
  const auto inf = SoftFloat::from_float(std::numeric_limits<float>::infinity());
  const auto one = SoftFloat::from_float(1.0f);
  const auto zero = SoftFloat::from_float(0.0f);
  EXPECT_TRUE((inf + one).is_inf());
  EXPECT_TRUE((inf - inf).is_nan());
  EXPECT_TRUE((inf * zero).is_nan());
  EXPECT_TRUE((zero / zero).is_nan());
  EXPECT_TRUE((one / zero).is_inf());
  EXPECT_TRUE((one / inf).is_zero());
  EXPECT_TRUE((inf / inf).is_nan());

  const auto nan = SoftFloat::from_bits(0x7fc00000u);
  EXPECT_FALSE(nan == nan);
  EXPECT_FALSE(nan < one);
  EXPECT_FALSE(one < nan);
  EXPECT_FALSE(nan <= nan);
}

TEST(SoftFloat, OverflowToInfinity) {
  const auto big = SoftFloat::from_float(3e38f);
  EXPECT_TRUE((big + big).is_inf());
  EXPECT_TRUE((big * big).is_inf());
}

TEST(SoftFloat, UnderflowFlushesToZero) {
  const auto tiny = SoftFloat::from_float(1e-38f);
  const auto r = tiny * tiny;  // true result ~1e-76, far below binary32 range
  EXPECT_TRUE(r.is_zero());
}

TEST(SoftFloat, Comparisons) {
  const auto a = SoftFloat::from_float(-2.0f);
  const auto b = SoftFloat::from_float(1.0f);
  const auto c = SoftFloat::from_float(3.0f);
  EXPECT_TRUE(a < b);
  EXPECT_TRUE(b < c);
  EXPECT_TRUE(a < c);
  EXPECT_TRUE(c > a);
  EXPECT_TRUE(a <= a);
  EXPECT_TRUE(c >= c);
  EXPECT_FALSE(b < a);
}

// --- Property sweeps against hardware IEEE arithmetic -----------------------

struct BinOpCase {
  const char* name;
  float (*hw)(float, float);
  SoftFloat (*sw)(SoftFloat, SoftFloat);
};

// gtest's default printer dumps the case's bytes into the test's listed
// name; those bytes are pointers, which ASLR moves on every run.
void PrintTo(const BinOpCase& op, std::ostream* os) { *os << op.name; }

class SoftFloatVsHardware : public ::testing::TestWithParam<BinOpCase> {};

TEST_P(SoftFloatVsHardware, BitExactOnNormals) {
  const auto& op = GetParam();
  sim::Rng rng{0xF00D};
  int checked = 0;
  for (int i = 0; i < 200000; ++i) {
    const float a = random_normal_float(rng);
    const float b = random_normal_float(rng);
    const float expect = op.hw(a, b);
    if (!std::isfinite(expect) || is_subnormal_or_zero(expect)) continue;
    const SoftFloat got = op.sw(SoftFloat::from_float(a), SoftFloat::from_float(b));
    ASSERT_EQ(got.bits(), std::bit_cast<std::uint32_t>(expect))
        << op.name << "(" << a << ", " << b << ") = " << expect
        << " but soft float produced " << got.to_float();
    ++checked;
  }
  EXPECT_GT(checked, 100000);  // the sweep must actually exercise the op
}

INSTANTIATE_TEST_SUITE_P(
    Ops, SoftFloatVsHardware,
    ::testing::Values(
        BinOpCase{"add", [](float a, float b) { return a + b; },
                  [](SoftFloat a, SoftFloat b) { return a + b; }},
        BinOpCase{"sub", [](float a, float b) { return a - b; },
                  [](SoftFloat a, SoftFloat b) { return a - b; }},
        BinOpCase{"mul", [](float a, float b) { return a * b; },
                  [](SoftFloat a, SoftFloat b) { return a * b; }},
        BinOpCase{"div", [](float a, float b) { return a / b; },
                  [](SoftFloat a, SoftFloat b) { return a / b; }}),
    [](const auto& param_info) { return param_info.param.name; });

TEST(SoftFloatProperty, ComparisonAgreesWithHardware) {
  sim::Rng rng{0xBEEF};
  for (int i = 0; i < 100000; ++i) {
    const float a = random_normal_float(rng);
    const float b = random_normal_float(rng);
    const auto sa = SoftFloat::from_float(a), sb = SoftFloat::from_float(b);
    EXPECT_EQ(sa < sb, a < b) << a << " vs " << b;
    EXPECT_EQ(sa == sb, a == b);
    EXPECT_EQ(sa <= sb, a <= b);
  }
}

// Catastrophic-cancellation region: operands close in magnitude, opposite
// sign — the hardest path in the adder (full normalization shifts).
TEST(SoftFloatProperty, CancellationPathBitExact) {
  sim::Rng rng{0xCAFE};
  int checked = 0;
  for (int i = 0; i < 100000; ++i) {
    const float a = random_normal_float(rng);
    // Perturb a few low mantissa bits, flip the sign.
    const std::uint32_t bits = std::bit_cast<std::uint32_t>(a);
    const std::uint32_t delta = static_cast<std::uint32_t>(rng.below(64));
    const float b = -bits_to_float((bits & ~63u) | delta);
    const float expect = a + b;
    if (!std::isfinite(expect) || is_subnormal_or_zero(expect)) continue;
    const SoftFloat got = SoftFloat::from_float(a) + SoftFloat::from_float(b);
    ASSERT_EQ(got.bits(), std::bit_cast<std::uint32_t>(expect))
        << a << " + " << b;
    ++checked;
  }
  EXPECT_GT(checked, 1000);
}

}  // namespace
}  // namespace nistream::fixedpt
