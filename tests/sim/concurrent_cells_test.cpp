// TSan regression for the parallel sweep runner's core assumption: two fully
// independent simulation cells (engine + scheduler + coroutine pumps) can run
// on separate threads with no shared mutable state. The only cross-thread
// couplings in the simulation core are thread_local (coroutine frame pool)
// or stateless statics (NullCostHook), so this must be race-free AND produce
// results identical to running the same cells sequentially.
//
// Run under -fsanitize=thread to catch any future static sneaking into the
// hot path; without TSan it still pins cross-thread determinism.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "dwcs/scheduler.hpp"
#include "sim/coro.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"

namespace nistream {
namespace {

using sim::Time;

struct CellResult {
  std::uint64_t decisions = 0;
  std::uint64_t dispatched_frames = 0;
  std::uint64_t frame_id_sum = 0;  // order-sensitive fingerprint
  std::uint64_t violations = 0;

  bool operator==(const CellResult&) const = default;
};

// One self-contained cell: 12 streams with seed-derived periods/tolerances,
// coroutine producers enqueueing over simulated time, an event-driven
// service loop dispatching every 2 ms.
CellResult run_cell(std::uint64_t seed) {
  sim::Engine eng;
  dwcs::DwcsScheduler sched{dwcs::DwcsScheduler::Config{}};
  sim::Rng rng{seed};

  constexpr std::size_t kStreams = 12;
  std::vector<dwcs::StreamId> ids;
  ids.reserve(kStreams);
  for (std::size_t i = 0; i < kStreams; ++i) {
    const std::int64_t y = 2 + static_cast<std::int64_t>(rng.below(4));
    dwcs::StreamParams p{
        .tolerance = {1 + static_cast<std::int64_t>(rng.below(2)), y},
        .period = Time::ms(5 + rng.below(30)),
        .lossy = rng.chance(0.5)};
    ids.push_back(sched.create_stream(p, eng.now()));
  }

  auto producer = [&](dwcs::StreamId id, sim::Rng prng) -> sim::Coro {
    for (std::uint64_t f = 0; f < 40; ++f) {
      co_await sim::Delay{eng, Time::us(500 + prng.below(20'000))};
      dwcs::FrameDescriptor d{.frame_id = id * 1000 + f,
                              .bytes = 1000 + static_cast<std::uint32_t>(
                                                  prng.below(8000)),
                              .type = mpeg::FrameType::kP,
                              .enqueued_at = eng.now()};
      (void)sched.enqueue(id, d, eng.now());
    }
  };
  for (auto id : ids) producer(id, rng.fork()).detach();

  CellResult r;
  auto service = [&]() -> sim::Coro {
    while (eng.now() < Time::ms(1500)) {
      co_await sim::Delay{eng, Time::ms(2)};
      while (auto d = sched.schedule_next(eng.now())) {
        ++r.dispatched_frames;
        r.frame_id_sum = r.frame_id_sum * 31 + d->frame.frame_id;
      }
    }
  };
  service().detach();
  eng.run();

  r.decisions = sched.decisions();
  r.violations = sched.total_violations();
  return r;
}

TEST(ConcurrentCells, TwoThreadsMatchSequentialRuns) {
  const CellResult seq_a = run_cell(0xA11CE);
  const CellResult seq_b = run_cell(0xB0B);
  ASSERT_GT(seq_a.dispatched_frames, 0u);
  ASSERT_GT(seq_b.dispatched_frames, 0u);
  ASSERT_NE(seq_a, seq_b);  // distinct seeds: a real comparison, not 0 == 0

  CellResult par_a, par_b;
  std::thread ta{[&] { par_a = run_cell(0xA11CE); }};
  std::thread tb{[&] { par_b = run_cell(0xB0B); }};
  ta.join();
  tb.join();

  EXPECT_EQ(par_a, seq_a) << "cell A diverged when run concurrently";
  EXPECT_EQ(par_b, seq_b) << "cell B diverged when run concurrently";
}

TEST(ConcurrentCells, ManyCellsAcrossFourThreads) {
  // Wider sweep shape: 8 cells pulled by 4 workers, as bench::run_cells
  // does. Each cell's result must match its sequential twin.
  constexpr std::size_t kCells = 8;
  std::vector<CellResult> seq(kCells);
  for (std::size_t i = 0; i < kCells; ++i)
    seq[i] = run_cell(0x5EED + i * 7919);

  std::vector<CellResult> par(kCells);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < kCells;
           i = next.fetch_add(1))
        par[i] = run_cell(0x5EED + i * 7919);
    });
  }
  for (auto& t : workers) t.join();

  for (std::size_t i = 0; i < kCells; ++i)
    EXPECT_EQ(par[i], seq[i]) << "cell " << i << " diverged under threading";
}

}  // namespace
}  // namespace nistream
