// Parameterized consistency matrix over the microbenchmark configuration
// space (arithmetic mode x d-cache x descriptor residency x stream count):
// the physical orderings the paper's Tables 1-3 rest on must hold at every
// point, not just the published corners.
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "apps/experiments.hpp"

namespace nistream::apps {
namespace {

// gtest dumps each point's bytes into the test's listed name, so the point
// must have no padding bytes: a bool field would leave three of them holding
// whatever was on the stack, and the name would change from run to run.
enum class DCache : std::int32_t { kOff, kOn };

struct MatrixPoint {
  DCache dcache;
  dwcs::DescriptorResidency residency;
  int n_streams;
};
static_assert(std::has_unique_object_representations_v<MatrixPoint>);

constexpr auto kPinned = dwcs::DescriptorResidency::kPinnedMemory;
constexpr auto kHwq = dwcs::DescriptorResidency::kHardwareQueue;

class MicrobenchMatrix : public ::testing::TestWithParam<MatrixPoint> {
 protected:
  static MicrobenchResult run(const MatrixPoint& p, dwcs::ArithMode arith) {
    MicrobenchConfig c;
    c.arith = arith;
    c.dcache_enabled = p.dcache == DCache::kOn;
    c.residency = p.residency;
    c.n_streams = p.n_streams;
    c.n_frames = p.n_streams * 38;
    return run_microbench(c);
  }
};

TEST_P(MicrobenchMatrix, FixedPointNeverSlowerThanSoftFloat) {
  const auto fixed = run(GetParam(), dwcs::ArithMode::kFixedPoint);
  const auto soft = run(GetParam(), dwcs::ArithMode::kSoftFloat);
  EXPECT_LT(fixed.avg_frame_sched_us, soft.avg_frame_sched_us);
  // And the gap is material (the FP library is the dominant arithmetic
  // cost), not rounding noise.
  EXPECT_GT(soft.avg_frame_sched_us - fixed.avg_frame_sched_us, 5.0);
}

TEST_P(MicrobenchMatrix, SchedulerAlwaysCostsMoreThanDispatchOnly) {
  const auto r = run(GetParam(), dwcs::ArithMode::kFixedPoint);
  EXPECT_GT(r.avg_frame_sched_us, r.avg_frame_wo_sched_us);
  EXPECT_GT(r.overhead_us(), 10.0);
}

TEST_P(MicrobenchMatrix, NativeFpuBeatsSoftFloat) {
  const auto native = run(GetParam(), dwcs::ArithMode::kNativeFloat);
  const auto soft = run(GetParam(), dwcs::ArithMode::kSoftFloat);
  EXPECT_LT(native.avg_frame_sched_us, soft.avg_frame_sched_us);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MicrobenchMatrix,
    ::testing::Values(
        MatrixPoint{DCache::kOff, kPinned, 2},
        MatrixPoint{DCache::kOff, kPinned, 16},
        MatrixPoint{DCache::kOn, kPinned, 2},
        MatrixPoint{DCache::kOn, kPinned, 16},
        MatrixPoint{DCache::kOff, kHwq, 4},
        MatrixPoint{DCache::kOn, kHwq, 4},
        MatrixPoint{DCache::kOn, kPinned, 64}),
    [](const auto& param_info) {
      const auto& p = param_info.param;
      return std::string{p.dcache == DCache::kOn ? "cacheOn" : "cacheOff"} +
             (p.residency == kPinned ? "_pinned" : "_hwq") + "_s" +
             std::to_string(p.n_streams);
    });

TEST(MicrobenchMatrixCache, CacheAlwaysHelpsPinnedMemory) {
  for (const int n : {2, 8, 32}) {
    MicrobenchConfig c;
    c.arith = dwcs::ArithMode::kFixedPoint;
    c.n_streams = n;
    c.n_frames = n * 38;
    c.dcache_enabled = false;
    const auto off = run_microbench(c);
    c.dcache_enabled = true;
    const auto on = run_microbench(c);
    EXPECT_LT(on.avg_frame_sched_us, off.avg_frame_sched_us) << n;
    EXPECT_LT(on.avg_frame_wo_sched_us, off.avg_frame_wo_sched_us) << n;
  }
}

TEST(MicrobenchMatrixCache, HardwareQueueIsCacheInsensitive) {
  MicrobenchConfig c;
  c.arith = dwcs::ArithMode::kFixedPoint;
  c.residency = dwcs::DescriptorResidency::kHardwareQueue;
  c.dcache_enabled = false;
  const auto off = run_microbench(c);
  c.dcache_enabled = true;
  const auto on = run_microbench(c);
  // The descriptor path (w/o-scheduler column) lives in the register file:
  // the cache state must barely move it.
  EXPECT_NEAR(on.avg_frame_wo_sched_us, off.avg_frame_wo_sched_us, 0.5);
}

}  // namespace
}  // namespace nistream::apps
