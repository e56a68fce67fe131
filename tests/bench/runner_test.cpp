// The sweep harness's contracts: run_cells writes every cell's result into
// its own pre-assigned slot, so the output array is identical for any
// --jobs value — thread scheduling affects only wall-clock time; the JSON
// field writer's exact bytes; the verdict ledger and the replay gate; the
// unknown-flag check. Also pins the provenance-stamp contract: git_rev()
// resolves at RUN time and always has a machine-checkable shape.
#include "bench_util.hpp"
#include "cli.hpp"
#include "runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace nistream::bench {
namespace {

// Deterministic per-cell "simulation": a splitmix64 chain seeded purely from
// the cell index, like real sweep cells seed from grid coordinates.
std::uint64_t cell_value(std::size_t i) {
  std::uint64_t x = i;
  for (int k = 0; k < 63; ++k) splitmix64(x);
  return splitmix64(x);
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

TEST(FlagJobs, UnknownFlagExits2NamingIt) {
  // A typo must not run silently with the default seed.
  char prog[] = "bench", jobs[] = "--jobs", three[] = "3";
  char smoke[] = "--smoke", seed[] = "--seed=7", typo[] = "--sed=7";
  char* argv[] = {prog, jobs, three, smoke, seed, typo};
  EXPECT_EQ(flag_jobs(6, argv), 3u);
  EXPECT_TRUE(flag_present(6, argv, "smoke"));
  EXPECT_EQ(flag_u64(6, argv, "seed", 0), 7u);
  reject_unknown_flags(5, argv);  // every flag was asked for: returns
  EXPECT_EXIT(reject_unknown_flags(6, argv), testing::ExitedWithCode(2),
              "unknown flag --sed ");
}

// ---------------------------------------------------------------------------
// The JSON field writer, the verdict ledger and the replay gate.
// ---------------------------------------------------------------------------

TEST(SweepJson, WritesTheExactBytesAndEscapesStrings) {
  std::ostringstream out;
  Json::Record record;
  Json j{out, "{", ", ", &record};
  Verdict v;
  v.fail("tenant a\"b over budget");
  j.s("name", "a\"b\\c\n\x01").u("n", 18446744073709551615ull)
      .wrap(5).g("rate", 0.05).g("sec", 6.0).f("p", 2.0 / 3, 4)
      .object("o", [](Json& o) { o.b("x", true); })
      .wrap(5).strings("tenants", {"a\"b", "beta"}).verdict(v);
  j.wrap(1).list("rows", 2, 3, 2, [](std::size_t i, Json& r) { r.u("i", i); });
  j.close();
  EXPECT_EQ(out.str(),
            R"({"name": "a\"b\\c\u000a\u0001", "n": 18446744073709551615,
     "rate": 0.05, "sec": 6, "p": 0.6667, "o": {"x": true},
     "tenants": ["a\"b", "beta"], "ok": false, "fail_reason": "tenant a\"b over budget",
 "rows": [
   {"i": 0},
   {"i": 1}
  ]})");
  // The table reads the recorded fields; nested keys are dotted.
  EXPECT_EQ(record.size(), 9u);
  EXPECT_EQ(record["o.x"], "true");
}

TEST(SweepVerdict, FailJoinsReasonsWithSemicolons) {
  Verdict v;
  EXPECT_TRUE(v.ok && v.replay_identical);
  v.fail("first gate");
  v.fail("second gate");
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(v.fail_reason, "first gate; second gate");
}

TEST(SweepReplay, ADivergentSecondRunFailsTheCell) {
  // Cell 1's second run differs from its first; cell 0 replays exactly.
  const std::string path = testing::TempDir() + "sweep_replay_test.json";
  std::string out_flag = "--out=" + path;
  char prog[] = "toy_sweep", jobs[] = "--jobs=2";
  char* argv[] = {prog, jobs, out_flag.data()};
  const Sweep sweep{3, argv, "toy_sweep", "unused.json", 5};
  std::atomic<std::uint64_t> cell1_runs{0};
  testing::internal::CaptureStdout();
  const int rc = sweep.run(Plan<std::uint64_t, std::uint64_t>{
      .cells = {0, 1},
      .coord = [](const std::uint64_t& id) { return id; },
      .run = [&](const std::uint64_t& id, std::uint64_t seed) {
        return id == 1 ? ++cell1_runs : seed;
      },
      .replay = [](const std::uint64_t& r) { return r; },
      .gates = [](const std::uint64_t& r, Verdict& v) {
        if (r < 5) v.fail("toy gate");
      },
      .header = [](Json&) {},
      .fields = [](Json& j, const std::uint64_t& r, const Verdict& v) {
        j.u("result", r).b("replay_identical", v.replay_identical).verdict(v);
      },
      .columns = {"result", "ok"},
  });
  const std::string table = testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 1);
  EXPECT_NE(table.find("  ^ FAIL: same-seed replay diverged; toy gate\n"),
            std::string::npos) << table;
  // Cell seeds are master ^ coord: cell 0 runs on 5.
  std::ifstream in{path};
  const std::string doc{std::istreambuf_iterator<char>{in}, {}};
  EXPECT_NE(doc.find(R"(  "seed": 5,
  "ok": false,
  "cells": [
    {"result": 5, "replay_identical": true, "ok": true},
    {"result": 1, "replay_identical": false, "ok": false, "fail_reason": "same-seed replay diverged; toy gate"}
  ]
}
)"), std::string::npos) << doc;
  std::remove(path.c_str());
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
