// Native wall-clock microbenchmarks of the DWCS primitives (google-benchmark).
//
// These are NOT reproduction targets — the paper's numbers belong to a
// 66 MHz i960 — but a modern-hardware datum for the library itself: what a
// scheduling decision, an enqueue, and the arithmetic comparisons cost on
// the build machine.
#include <benchmark/benchmark.h>

#include "dwcs/comparator.hpp"
#include "dwcs/scheduler.hpp"
#include "fixedpt/softfloat.hpp"
#include "sim/random.hpp"

using namespace nistream;
using sim::Time;

namespace {

void setup_streams(dwcs::DwcsScheduler& s, int n) {
  sim::Rng rng{7};
  for (int i = 0; i < n; ++i) {
    const auto y = 2 + static_cast<std::int64_t>(rng.below(8));
    const auto x = static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(y)));
    s.create_stream({.tolerance = {x, y},
                     .period = Time::ms(10 + 10 * static_cast<double>(i % 4)),
                     .lossy = true},
                    Time::zero());
  }
}

const dwcs::DwcsScheduler::Config kEdfConfig{
    .repr = dwcs::ReprKind::kPifo, .policy = dwcs::PolicyKind::kEdf};

void BM_ScheduleNext(benchmark::State& state,
                     const dwcs::DwcsScheduler::Config& config) {
  const int n_streams = static_cast<int>(state.range(0));
  dwcs::DwcsScheduler sched{config};
  setup_streams(sched, n_streams);
  std::uint64_t fid = 0;
  std::int64_t t_ms = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (dwcs::StreamId i = 0; i < static_cast<dwcs::StreamId>(n_streams); ++i) {
      sched.enqueue(i,
                    dwcs::FrameDescriptor{.frame_id = fid++, .bytes = 1000,
                                          .type = mpeg::FrameType::kP,
                                          .enqueued_at = Time::ms(static_cast<double>(t_ms))},
                    Time::ms(static_cast<double>(t_ms)));
    }
    state.ResumeTiming();
    for (int i = 0; i < n_streams; ++i) {
      benchmark::DoNotOptimize(sched.schedule_next(Time::ms(static_cast<double>(t_ms))));
    }
    ++t_ms;
  }
  state.SetItemsProcessed(state.iterations() * n_streams);
}
BENCHMARK_CAPTURE(BM_ScheduleNext, dwcs, dwcs::DwcsScheduler::Config{})
    ->Arg(2)->Arg(8)->Arg(32)->Arg(128);
BENCHMARK_CAPTURE(BM_ScheduleNext, edf, kEdfConfig)->Arg(8);

void BM_Enqueue(benchmark::State& state) {
  dwcs::DwcsScheduler::Config cfg;
  cfg.ring_capacity = 1 << 16;
  dwcs::DwcsScheduler sched{cfg};
  setup_streams(sched, 1);
  std::uint64_t fid = 0;
  for (auto _ : state) {
    if (!sched.enqueue(0,
                       dwcs::FrameDescriptor{.frame_id = fid++, .bytes = 1000,
                                             .type = mpeg::FrameType::kP,
                                             .enqueued_at = Time::zero()},
                       Time::zero())) {
      state.PauseTiming();
      while (sched.schedule_next(Time::zero())) {}
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Enqueue);

void BM_ToleranceCompare(benchmark::State& state) {
  const auto mode = static_cast<dwcs::ArithMode>(state.range(0));
  dwcs::Comparator cmp{mode, dwcs::null_cost_hook()};
  sim::Rng rng{3};
  std::vector<dwcs::WindowConstraint> cs;
  for (int i = 0; i < 1024; ++i) {
    const auto y = 1 + static_cast<std::int64_t>(rng.below(64));
    cs.push_back({static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(y) + 1)), y});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cmp.cmp_tolerance(cs[i % 1024], cs[(i + 7) % 1024]));
    ++i;
  }
}
BENCHMARK(BM_ToleranceCompare)
    ->Arg(static_cast<int>(dwcs::ArithMode::kFixedPoint))
    ->Arg(static_cast<int>(dwcs::ArithMode::kSoftFloat))
    ->Arg(static_cast<int>(dwcs::ArithMode::kNativeFloat));

void BM_SoftFloatDiv(benchmark::State& state) {
  sim::Rng rng{5};
  const auto a = fixedpt::SoftFloat::from_float(
      static_cast<float>(rng.uniform(1.0, 100.0)));
  const auto b = fixedpt::SoftFloat::from_float(
      static_cast<float>(rng.uniform(1.0, 100.0)));
  for (auto _ : state) benchmark::DoNotOptimize(a / b);
}
BENCHMARK(BM_SoftFloatDiv);

}  // namespace

BENCHMARK_MAIN();
