// Determinism and fuzz tests spanning the whole stack.
//
// Reproducibility is a design guarantee of this codebase (simulated
// addresses, seeded RNGs, FIFO event tie-breaks): any experiment run twice
// must produce bit-identical results. The fuzz test drives the full DWCS
// stack through long random workloads across every configuration axis and
// checks global invariants.
#include <gtest/gtest.h>

#include "apps/experiments.hpp"
#include "dwcs/scheduler.hpp"
#include "sim/random.hpp"

namespace nistream::apps {
namespace {

TEST(Determinism, MicrobenchIsBitStable) {
  MicrobenchConfig c;
  c.arith = dwcs::ArithMode::kSoftFloat;
  const auto a = run_microbench(c);
  const auto b = run_microbench(c);
  EXPECT_EQ(a.total_sched_us, b.total_sched_us);
  EXPECT_EQ(a.total_wo_sched_us, b.total_wo_sched_us);
}

TEST(Determinism, CriticalPathIsBitStable) {
  const auto a = run_critical_path(100);
  const auto b = run_critical_path(100);
  EXPECT_EQ(a.expt1_ufs_ms, b.expt1_ufs_ms);
  EXPECT_EQ(a.expt2_ms, b.expt2_ms);
  EXPECT_EQ(a.expt3_ms, b.expt3_ms);
}

TEST(Determinism, LoadExperimentIsBitStable) {
  LoadExperimentConfig c;
  c.target_utilization = 0.45;
  c.horizon = sim::Time::sec(20);
  c.frames_per_stream = 600;
  const auto a = run_host_load_experiment(c);
  const auto b = run_host_load_experiment(c);
  EXPECT_EQ(a.avg_utilization, b.avg_utilization);
  EXPECT_EQ(a.s1.frames_delivered, b.s1.frames_delivered);
  EXPECT_EQ(a.s1.settle_bandwidth_bps, b.s1.settle_bandwidth_bps);
  ASSERT_EQ(a.s1.qdelay_ms.size(), b.s1.qdelay_ms.size());
  for (std::size_t i = 0; i < a.s1.qdelay_ms.size(); ++i) {
    EXPECT_EQ(a.s1.qdelay_ms[i], b.s1.qdelay_ms[i]);
  }
}

TEST(Determinism, SeedChangesResults) {
  LoadExperimentConfig c;
  c.target_utilization = 0.45;
  c.horizon = sim::Time::sec(20);
  c.frames_per_stream = 600;
  const auto a = run_host_load_experiment(c);
  c.seed += 1;
  const auto b = run_host_load_experiment(c);
  EXPECT_NE(a.avg_utilization, b.avg_utilization);
}

// ---- Full-stack scheduler fuzz ---------------------------------------------

struct FuzzAxis {
  dwcs::ArithMode arith;
  dwcs::ReprKind repr;
  bool completion_anchor;
};

// gtest prints each parameter into its test's listed name; by default an
// axis prints as its bytes, which renumbering ReprKind would change.
void PrintTo(const FuzzAxis& axis, std::ostream* os) {
  constexpr const char* kArith[] = {"fixed", "softfp", "native"};
  *os << dwcs::to_string(axis.repr) << ' '
      << (axis.completion_anchor ? "anchor" : "grid") << ' '
      << kArith[static_cast<int>(axis.arith)];
}

class DwcsFuzz : public ::testing::TestWithParam<FuzzAxis> {};

TEST_P(DwcsFuzz, InvariantsHoldUnderRandomWorkloads) {
  const auto axis = GetParam();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    sim::Rng rng{seed * 7919};
    dwcs::DwcsScheduler::Config cfg;
    cfg.arith = axis.arith;
    cfg.repr = axis.repr;
    cfg.deadline_from_completion = axis.completion_anchor;
    cfg.ring_capacity = 16 + rng.below(64);
    dwcs::DwcsScheduler s{cfg};

    const int n_streams = 2 + static_cast<int>(rng.below(10));
    std::vector<dwcs::StreamId> ids;
    std::vector<std::uint64_t> accepted(static_cast<std::size_t>(n_streams));
    for (int i = 0; i < n_streams; ++i) {
      const auto y = 1 + static_cast<std::int64_t>(rng.below(10));
      ids.push_back(s.create_stream(
          {.tolerance = {static_cast<std::int64_t>(
                             rng.below(static_cast<std::uint64_t>(y) + 1)),
                         y},
           .period = sim::Time::ms(1 + static_cast<double>(rng.below(50))),
           .lossy = rng.chance(0.6)},
          sim::Time::zero()));
    }

    std::uint64_t fid = 0;
    sim::Time now = sim::Time::zero();
    for (int step = 0; step < 20000; ++step) {
      now += sim::Time::us(rng.below(4000));
      const auto action = rng.below(10);
      if (action < 6) {
        const auto i = rng.below(static_cast<std::uint64_t>(n_streams));
        if (s.enqueue(ids[i],
                      {.frame_id = fid++,
                       .bytes = 100 + static_cast<std::uint32_t>(rng.below(20000)),
                       .type = mpeg::FrameType::kP,
                       .enqueued_at = now},
                      now)) {
          ++accepted[i];
        }
      } else {
        const auto d = s.schedule_next(now);
        if (d) {
          // Dispatched frames are never in the future of their deadline
          // unless the stream is loss-intolerant.
          if (d->late) {
            EXPECT_FALSE(s.stream_params(d->stream).lossy);
          }
        }
      }
      // Window-constraint state stays well-formed at every step.
      for (const auto id : ids) {
        const auto& v = s.stream_view(id);
        ASSERT_GE(v.current.x, 0);
        ASSERT_GE(v.current.y, v.current.x);
        ASSERT_GE(v.current.y, 1);
      }
    }
    // Conservation: every accepted frame is sent, dropped, or still queued.
    for (int i = 0; i < n_streams; ++i) {
      const auto& st = s.stats(ids[static_cast<std::size_t>(i)]);
      EXPECT_EQ(st.enqueued, accepted[static_cast<std::size_t>(i)]);
      EXPECT_EQ(st.serviced_on_time + st.serviced_late + st.dropped +
                    s.backlog(ids[static_cast<std::size_t>(i)]),
                st.enqueued)
          << "stream " << i << " seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Axes, DwcsFuzz,
    ::testing::Values(
        FuzzAxis{dwcs::ArithMode::kFixedPoint, dwcs::ReprKind::kDualHeap, false},
        FuzzAxis{dwcs::ArithMode::kFixedPoint, dwcs::ReprKind::kDualHeap, true},
        FuzzAxis{dwcs::ArithMode::kSoftFloat, dwcs::ReprKind::kPifo, false},
        FuzzAxis{dwcs::ArithMode::kNativeFloat, dwcs::ReprKind::kSortedList, true},
        FuzzAxis{dwcs::ArithMode::kFixedPoint, dwcs::ReprKind::kCalendarQueue, false},
        FuzzAxis{dwcs::ArithMode::kFixedPoint, dwcs::ReprKind::kFcfs, true}),
    [](const auto& param_info) {
      std::string name{dwcs::to_string(param_info.param.repr)};
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name + "_" + (param_info.param.completion_anchor ? "anchor" : "grid") +
             "_" + std::to_string(static_cast<int>(param_info.param.arith));
    });

}  // namespace
}  // namespace nistream::apps
