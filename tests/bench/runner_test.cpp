// The sweep runner's determinism contract: run_cells writes every cell's
// result into its own pre-assigned slot, so the output array is identical
// for any --jobs value — thread scheduling affects only wall-clock time.
// Also pins the provenance-stamp contract: git_rev() resolves at RUN time
// and always has a machine-checkable shape.
#include "bench_util.hpp"
#include "cli.hpp"
#include "runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

namespace nistream::bench {
namespace {

// Deterministic per-cell "simulation": a splitmix64 chain seeded purely from
// the cell index, like real sweep cells seed from grid coordinates.
std::uint64_t cell_value(std::size_t i) {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(i);
  for (int k = 0; k < 64; ++k) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
  }
  return x;
}

std::vector<std::uint64_t> sweep(std::size_t n, unsigned jobs) {
  std::vector<std::uint64_t> out(n);
  run_cells(n, jobs, [&](std::size_t i) { out[i] = cell_value(i); });
  return out;
}

TEST(RunCells, ResultsAreIdenticalAcrossJobCounts) {
  const auto reference = sweep(64, 1);
  for (const unsigned jobs : {2u, 4u, 8u}) {
    EXPECT_EQ(sweep(64, jobs), reference) << "jobs=" << jobs;
  }
}

TEST(RunCells, EveryCellRunsExactlyOnce) {
  constexpr std::size_t kCells = 100;
  std::vector<std::atomic<int>> hits(kCells);
  run_cells(kCells, 4, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kCells; ++i)
    EXPECT_EQ(hits[i].load(), 1) << "cell " << i;
}

TEST(RunCells, DegenerateShapes) {
  int calls = 0;
  run_cells(0, 4, [&](std::size_t) { ++calls; });  // empty grid
  EXPECT_EQ(calls, 0);

  run_cells(1, 8, [&](std::size_t i) {  // single cell: calling thread
    ++calls;
    EXPECT_EQ(i, 0u);
  });
  EXPECT_EQ(calls, 1);

  // More workers than cells must not spin or double-run anything.
  std::vector<std::atomic<int>> hits(3);
  run_cells(3, 16, [&](std::size_t i) { ++hits[i]; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(RunCells, SequentialPathRunsInGridOrderOnCallingThread) {
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  run_cells(5, 1, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);  // safe: sequential by contract
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(FlagJobs, ParsesZeroAsOneAndCapsAtBound) {
  char prog[] = "bench";
  char zero[] = "--jobs=0";
  char big[] = "--jobs=1000000";
  char four[] = "--jobs=4";
  {
    char* argv[] = {prog, zero};
    EXPECT_EQ(flag_jobs(2, argv), 1u);
  }
  {
    char* argv[] = {prog, big};
    EXPECT_EQ(flag_jobs(2, argv), 1024u);
  }
  {
    char* argv[] = {prog, four};
    EXPECT_EQ(flag_jobs(2, argv), 4u);
  }
  {
    char* argv[] = {prog};
    EXPECT_EQ(flag_jobs(1, argv), default_jobs());
  }
}

TEST(FlagJobs, AcceptsTheSpaceForm) {
  // The docs write `--jobs 1` and `--seed 7`; both forms must parse, and a
  // numeric value must not be mistaken for the positional output path.
  char prog[] = "bench";
  char jobs[] = "--jobs";
  char three[] = "3";
  char seed[] = "--seed";
  char seven[] = "7";
  char eq_form[] = "--seed=0x10";
  char out[] = "out.json";
  {
    char* argv[] = {prog, jobs, three, seed, seven};
    EXPECT_EQ(flag_jobs(5, argv), 3u);
    EXPECT_EQ(flag_u64(5, argv, "seed", 0), 7u);
    EXPECT_EQ(positional(5, argv, "default.json"), "default.json");
  }
  {
    char* argv[] = {prog, jobs, three, out, eq_form};
    EXPECT_EQ(flag_jobs(5, argv), 3u);
    EXPECT_EQ(flag_u64(5, argv, "seed", 0), 16u);
    EXPECT_EQ(positional(5, argv, "default.json"), "out.json");
  }
}

TEST(FlagJobs, TrailingFlagWithoutValueExits2) {
  char prog[] = "bench";
  char jobs[] = "--jobs";
  char bad[] = "--jobs=four";
  {
    char* argv[] = {prog, jobs};
    EXPECT_EXIT(flag_jobs(2, argv), testing::ExitedWithCode(2),
                "--jobs needs a value");
  }
  {
    char* argv[] = {prog, bad};
    EXPECT_EXIT(flag_jobs(2, argv), testing::ExitedWithCode(2),
                "bad --jobs value");
  }
}

// ---------------------------------------------------------------------------
// git_rev() provenance stamp.
// ---------------------------------------------------------------------------

TEST(GitRev, FormatCheckerAcceptsExactlyThePromisedShapes) {
  // The promised shapes: "unknown", or 7-40 lowercase-hex chars with an
  // optional "-dirty" suffix.
  EXPECT_TRUE(git_rev_well_formed("unknown"));
  EXPECT_TRUE(git_rev_well_formed("d4e34fa"));
  EXPECT_TRUE(git_rev_well_formed("d4e34fa-dirty"));
  EXPECT_TRUE(git_rev_well_formed(std::string(40, 'a')));

  EXPECT_FALSE(git_rev_well_formed(""));
  EXPECT_FALSE(git_rev_well_formed("-dirty"));
  EXPECT_FALSE(git_rev_well_formed("d4e34fa\n"));       // stray newline
  EXPECT_FALSE(git_rev_well_formed("D4E34FA"));         // uppercase
  EXPECT_FALSE(git_rev_well_formed("abc123"));          // too short
  EXPECT_FALSE(git_rev_well_formed(std::string(41, 'a')));
  EXPECT_FALSE(git_rev_well_formed("d4e34fa-dirty-dirty"));
}

TEST(GitRev, RuntimeResolutionIsWellFormed) {
  // Whatever source the fallback chain lands on (env, run-time git describe,
  // configure-time macro, "unknown"), the stamp must be machine-checkable —
  // this is what keeps a malformed rev out of the tracked BENCH_*.json files.
  ::unsetenv("NISTREAM_GIT_REV");
  const std::string rev = git_rev();
  EXPECT_TRUE(git_rev_well_formed(rev)) << "git_rev() = \"" << rev << "\"";
}

TEST(GitRev, EnvironmentOverrideWins) {
  ::setenv("NISTREAM_GIT_REV", "feedfacefeedface", /*overwrite=*/1);
  EXPECT_EQ(git_rev(), "feedfacefeedface");
  ::unsetenv("NISTREAM_GIT_REV");
}

}  // namespace
}  // namespace nistream::bench
