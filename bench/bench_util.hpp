// Shared output helpers for the reproduction benches.
//
// Every bench prints (a) the paper's reported numbers, (b) this build's
// measured numbers, so a run reads as a side-by-side reproduction check.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/stats.hpp"

namespace nistream::bench {

/// Schema version of the tracked BENCH_*.json files. Version 2 added the
/// provenance stamp (git_rev, jobs) that runner.hpp's open_doc writes.
inline constexpr int kJsonSchemaVersion = 2;

/// Revision of the tree the bench RAN against, resolved at run time:
///   1. NISTREAM_GIT_REV environment variable (CI stamps the exact checkout
///      even on stale build trees);
///   2. `git describe --always --dirty` in the source directory, so a tree
///      that was dirty at configure time but clean at run time stamps the
///      clean rev (a configure-time-only stamp once shipped "<rev>-dirty"
///      into a tracked JSON from a clean commit);
///   3. the NISTREAM_GIT_REV compile definition (configure-time fallback for
///      builds whose source tree has moved or lost .git);
///   4. "unknown".
inline std::string git_rev() {
  if (const char* env = std::getenv("NISTREAM_GIT_REV")) return env;
#ifdef NISTREAM_SOURCE_DIR
  const std::string cmd = std::string{"git -C \""} + NISTREAM_SOURCE_DIR +
                          "\" describe --always --dirty 2>/dev/null";
  if (FILE* pipe = ::popen(cmd.c_str(), "r")) {
    char buf[128] = {};
    std::string rev;
    if (std::fgets(buf, sizeof buf, pipe)) rev = buf;
    const int rc = ::pclose(pipe);
    while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) {
      rev.pop_back();
    }
    if (rc == 0 && !rev.empty()) return rev;
  }
#endif
#ifdef NISTREAM_GIT_REV
  return NISTREAM_GIT_REV;
#else
  return "unknown";
#endif
}

/// True when `rev` has the shape git_rev() promises: "unknown", or a 7-40
/// char lowercase-hex object name with an optional "-dirty" suffix. The
/// runner tests pin this so a malformed stamp (empty string, trailing
/// newline, shell noise) fails fast instead of landing in a tracked JSON.
inline bool git_rev_well_formed(const std::string& rev) {
  if (rev == "unknown") return true;
  std::string hex = rev;
  const std::string dirty = "-dirty";
  if (hex.size() > dirty.size() &&
      hex.compare(hex.size() - dirty.size(), dirty.size(), dirty) == 0) {
    hex.resize(hex.size() - dirty.size());
  }
  if (hex.size() < 7 || hex.size() > 40) return false;
  for (char c : hex) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return true;
}

/// git_rev() captured during static initialization, BEFORE main() runs and
/// before the bench opens (and thereby dirties) its own tracked output
/// JSON. Self-stamping runs from a clean checkout stamp the clean rev; the
/// old call-at-write-time scheme always saw its own in-progress write as
/// "-dirty".
inline const std::string kGitRevAtStartup = git_rev();

inline void header(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

inline void row(const char* label, double paper, double measured,
                const char* unit) {
  const double delta =
      paper != 0.0 ? 100.0 * (measured - paper) / paper : 0.0;
  std::printf("  %-38s paper %10.2f %-5s  measured %10.2f %-5s  (%+.1f%%)\n",
              label, paper, unit, measured, unit, delta);
}

inline void note(const char* text) { std::printf("  %s\n", text); }

/// Print a (time, value) series as aligned columns, downsampled to at most
/// `max_rows` rows — enough to eyeball against the paper's figures.
inline void print_series(const sim::TimeSeries& ts, const char* value_label,
                         std::size_t max_rows = 25) {
  const auto& pts = ts.points();
  if (pts.empty()) {
    std::printf("  (empty series)\n");
    return;
  }
  const std::size_t stride = pts.size() > max_rows ? pts.size() / max_rows : 1;
  std::printf("  %10s  %12s\n", "time_s", value_label);
  for (std::size_t i = 0; i < pts.size(); i += stride) {
    std::printf("  %10.1f  %12.0f\n", pts[i].first.to_sec(), pts[i].second);
  }
}

/// When NISTREAM_CSV_DIR is set, write the series there as
/// `<name>.csv` (plot-ready) and say so; otherwise do nothing.
inline void maybe_write_csv(const sim::TimeSeries& ts, const std::string& name,
                            const char* value_label) {
  const char* dir = std::getenv("NISTREAM_CSV_DIR");
  if (!dir) return;
  const std::string path = std::string{dir} + "/" + name + ".csv";
  std::ofstream out{path};
  if (!out) {
    std::printf("  (could not write %s)\n", path.c_str());
    return;
  }
  ts.write_csv(out, value_label);
  std::printf("  wrote %s\n", path.c_str());
}

/// CSV for (frame#, value) sequences (the Figure 8/10 x-axis).
inline void maybe_write_frame_csv(
    const std::vector<std::pair<std::uint64_t, double>>& points,
    const std::string& name, const char* value_label) {
  const char* dir = std::getenv("NISTREAM_CSV_DIR");
  if (!dir) return;
  const std::string path = std::string{dir} + "/" + name + ".csv";
  std::ofstream out{path};
  if (!out) return;
  out << "frame," << value_label << "\n";
  for (const auto& [frame, v] : points) out << frame << ',' << v << "\n";
  std::printf("  wrote %s\n", path.c_str());
}

}  // namespace nistream::bench
