// Shared plumbing of the repository benchmark: options, host clock, the
// FNV-1a fingerprint, and the report every workload fills in.
//
// Every metric carries its clock:
//  * host — what the machine running the benchmark spends (noisy; what
//           performance work moves);
//  * sim  — what the modelled NI does (repeats exactly for a seed; what
//           model work moves). Every sim value is folded into the run's
//           fingerprint, so a host-only change can prove it left the model
//           byte-identical.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace nibench {

using Clock = std::chrono::steady_clock;

inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;  // tiny instances for the benchmark's own tests
};

/// SplitMix64: the seeded generator behind every workload's inputs.
inline std::uint64_t splitmix64(std::uint64_t& s) {
  s += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d4b9f2a6c3e1b5ull;
  return z ^ (z >> 31);
}

/// FNV-1a over 64-bit words (doubles hashed by bit pattern).
struct Fingerprint {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void add_double(double d) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof d);
    __builtin_memcpy(&bits, &d, sizeof bits);
    add(bits);
  }
};

enum class ClockKind { kHost, kSim };

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  ClockKind clock = ClockKind::kHost;
  std::string note;  // printed beside the value, e.g. which percentile
};

/// What one benchmark process reports. `attempted`/`failed` count
/// operations (client lifecycles, or decision sequences); a failed
/// correctness check counts as one failed operation.
struct Report {
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, bool>> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t fingerprint = 0;

  void host(const std::string& name, double v, const std::string& unit,
            const std::string& note = "") {
    metrics.push_back({name, v, unit, ClockKind::kHost, note});
  }
  void sim(const std::string& name, double v, const std::string& unit,
           const std::string& note = "") {
    metrics.push_back({name, v, unit, ClockKind::kSim, note});
  }
  void check(const std::string& name, bool ok) {
    checks.emplace_back(name, ok);
    if (!ok) ++failed;
  }
};

double median(std::vector<double> v);

/// "<n> <what>, <min>..<max>": the sample behind a reported median.
std::string sample_note(const std::vector<double>& v, const std::string& what);

/// The core clock in GHz right now, read from a chain of dependent 64-bit
/// multiply-adds: 4 cycles a step (imul 3, add 1) on x86-64 cores since
/// Haswell. The fastest of 5 chains of 1M steps, ~7 ms in all.
inline double core_ghz() {
  constexpr int kSteps = 1'000'000;
  double best = 1e9;
  for (int k = 0; k < 5; ++k) {
    const auto t0 = Clock::now();
    std::uint64_t x = static_cast<std::uint64_t>(k);
    for (int i = 0; i < kSteps; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
    }
    asm volatile("" : : "r"(x));
    const double s = seconds_since(t0);
    if (s < best) best = s;
  }
  return 4.0 * kSteps / best / 1e9;
}

/// Set-up times, taken in slices spread over the run: after every timed
/// batch, the batch's own build plus more builds for at least kSeconds and
/// kMinBuilds. A slice's set-up time is its fastest build, scaled to a
/// kRefGhz core clock by core_ghz() read straight after the slice, and
/// `setup_s` is the median over slices. The host's core clock moves between
/// ~2.3 and ~3.0 GHz for seconds to minutes at a time, on every vCPU at
/// once; the scaling takes that out (README.md, "How setup_s is timed").
struct SetupSlices {
  static constexpr double kSeconds = 0.25;
  static constexpr std::size_t kMinBuilds = 5;
  static constexpr double kRefGhz = 3.0;
  std::vector<double> scaled;   // one per slice: fastest build at kRefGhz
  std::vector<double> fastest;  // one per slice: as timed
  std::vector<double> ghz;      // one per slice
  std::size_t builds = 0;

  /// `first` is a build already timed in this slice; `build` times one more
  /// and returns its seconds.
  template <typename Build>
  void slice(double first, Build&& build) {
    double best = first;
    std::size_t n = 1;
    const auto t0 = Clock::now();
    do {
      const double s = build();
      if (s < best) best = s;
      ++n;
    } while (n < kMinBuilds || seconds_since(t0) < kSeconds);
    const double clock = core_ghz();
    scaled.push_back(best * clock / kRefGhz);
    fastest.push_back(best);
    ghz.push_back(clock);
    builds += n;
  }

  [[nodiscard]] double median_s() const { return median(scaled); }
  [[nodiscard]] std::string note(const std::string& what) const {
    char timed[96];
    std::snprintf(timed, sizeof timed,
                  " at %.2g GHz; as timed %.4g s (median) at %.3g..%.3g GHz",
                  kRefGhz, median(fastest),
                  *std::min_element(ghz.begin(), ghz.end()),
                  *std::max_element(ghz.begin(), ghz.end()));
    return sample_note(scaled, "slices' fastest of " +
                                   std::to_string(builds) + " " + what) +
           timed;
  }
};

/// Nearest-rank percentile of an ascending-sorted sample.
double percentile_sorted(const std::vector<double>& sorted, double p);

/// The highest percentile on the ladder 99.99/99.9/99/90/50 that still has
/// at least 10 samples beyond it; writes its label ("p99.9") to `label`.
double tail_sorted(const std::vector<double>& sorted, std::string& label);

/// This process's resident-set high-water mark, in MB (getrusage).
double peak_rss_mb();

/// Layers in attribution order, lowest first. A traced step's host time is
/// charged to the highest layer whose public counter the step advanced;
/// steps that advance none land in kSim (timers, stack-cost delays and
/// coroutine resumes).
enum Layer { kSim, kHw, kNet, kDwcs, kDvcm, kPath, kSession, kApps, kLayers };
inline const char* layer_name(int l) {
  static const char* const kNames[kLayers] = {
      "sim", "hw", "net", "dwcs", "dvcm", "path", "session", "apps"};
  return kNames[l];
}

/// Report every layer's self time, and `unattributed_ns` as a share of all
/// traced time (self times plus `unattributed_ns` when it is not one of
/// them), so the coarseness of the attribution is visible.
void report_layer_times(Report& r, const std::int64_t (&self_ns)[kLayers],
                        std::int64_t unattributed_ns, bool in_self_ns);

void run_setup_storm(const Options& o, Report& r);
void run_steady_play(const Options& o, Report& r);
void run_dwcs_shards(const Options& o, Report& r);

}  // namespace nibench
