// nibench — the repository benchmark's measuring binary.
//
//   nibench --workload <setup_storm|steady_play|dwcs_shards> --seed <n>
//           --seconds <s> --trace <0|1> [--smoke]
//
// Runs ONE workload in this process (single-threaded), prints every metric
// by name with its unit and clock, every correctness check, and the run's
// simulated-output fingerprint, then a final `RESULT {...}` JSON line that
// nibench/run.py parses. Exits 1 when any check failed, 2 on a usage error.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hpp"

namespace nibench {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string sample_note(const std::vector<double>& v, const std::string& what) {
  if (v.empty()) return "no " + what;
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  char range[64];
  std::snprintf(range, sizeof range, ", %.4g..%.4g", *lo, *hi);
  return std::to_string(v.size()) + " " + what + range;
}

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

double tail_sorted(const std::vector<double>& sorted, std::string& label) {
  static const struct {
    double p;
    const char* label;
  } kLadder[] = {{99.99, "p99.99"}, {99.9, "p99.9"}, {99, "p99"},
                 {90, "p90"},       {50, "p50"}};
  const double n = static_cast<double>(sorted.size());
  for (const auto& step : kLadder) {
    const double rank = std::ceil(step.p / 100.0 * n);
    if (n - rank >= 10) {
      label = step.label;
      return percentile_sorted(sorted, step.p);
    }
  }
  label = "max";
  return sorted.empty() ? 0 : sorted.back();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void report_layer_times(Report& r, const std::int64_t (&self_ns)[kLayers],
                        std::int64_t unattributed_ns, bool in_self_ns) {
  std::int64_t total = in_self_ns ? 0 : unattributed_ns;
  for (const std::int64_t ns : self_ns) total += ns;
  for (int l = 0; l < kLayers; ++l) {
    r.host(std::string(layer_name(l)) + ".self_ms",
           static_cast<double>(self_ns[l]) / 1e6, "ms");
  }
  r.host("host.unattributed_share",
         total > 0 ? static_cast<double>(unattributed_ns) /
                         static_cast<double>(total)
                   : 0,
         "share");
}

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: nibench --workload <setup_storm|steady_play|"
               "dwcs_shards> --seed <n> --seconds <s> --trace <0|1> "
               "[--smoke]\n");
}

/// JSON string escaping for the few characters a metric note may hold.
std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void print(const Options& o, const Report& r) {
  std::printf("nibench %s seed=%llu trace=%d%s\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0,
              o.smoke ? " (smoke)" : "");
  for (const auto& m : r.metrics) {
    std::printf("  %-26s %16.6f %-6s [%s]%s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.clock == ClockKind::kHost ? "host" : "sim",
                m.note.empty() ? "" : "  ", m.note.c_str());
  }
  for (const auto& [name, ok] : r.checks) {
    std::printf("  check %-48s %s\n", name.c_str(), ok ? "ok" : "FAILED");
  }
  std::printf("  attempted %llu failed %llu error_rate %.6g\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              r.attempted ? static_cast<double>(r.failed) /
                                static_cast<double>(r.attempted)
                          : 0.0);
  std::printf("  sim fingerprint %016llx\n",
              static_cast<unsigned long long>(r.fingerprint));

  std::string json = "{\"workload\": " + json_str(o.workload) +
                     ", \"seed\": " + std::to_string(o.seed) +
                     ", \"trace\": " + (o.trace ? "1" : "0");
  char fp[32];
  std::snprintf(fp, sizeof fp, "%016llx",
                static_cast<unsigned long long>(r.fingerprint));
  json += ", \"fingerprint\": \"" + std::string(fp) + "\"";
  json += ", \"attempted\": " + std::to_string(r.attempted) +
          ", \"failed\": " + std::to_string(r.failed) + ", \"checks\": {";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    json += (i ? ", " : "") + json_str(r.checks[i].first) + ": " +
            (r.checks[i].second ? "true" : "false");
  }
  json += "}, \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    char val[40];
    std::snprintf(val, sizeof val, "%.17g", m.value);
    json += (i ? ", " : "") + json_str(m.name) + ": {\"value\": " + val +
            ", \"unit\": " + json_str(m.unit) + ", \"clock\": \"" +
            (m.clock == ClockKind::kHost ? "host" : "sim") +
            "\", \"note\": " + json_str(m.note) + "}";
  }
  json += "}}";
  std::printf("RESULT %s\n", json.c_str());
}

}  // namespace
}  // namespace nibench

int main(int argc, char** argv) {
  nibench::Options o;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") {
        nibench::usage();
        return 2;
      }
      o.trace = v == "1";
      have_trace = true;
    } else {
      nibench::usage();
      return 2;
    }
  }
  if (o.workload.empty() || !have_trace || !(o.seconds > 0)) {
    nibench::usage();
    return 2;
  }

  // Keep every freed byte in the process, all of it on the heap: the warm-up
  // batch faults the heap in once, and timed builds and batches reuse it
  // instead of taking fresh zeroed pages from the kernel. Those page faults
  // were about half of a dwcs_shards load, and its noisiest part on a shared
  // VM.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, -1);

  nibench::Report r;
  if (o.workload == "setup_storm") {
    nibench::run_setup_storm(o, r);
  } else if (o.workload == "steady_play") {
    nibench::run_steady_play(o, r);
  } else if (o.workload == "dwcs_shards") {
    nibench::run_dwcs_shards(o, r);
  } else {
    nibench::usage();
    return 2;
  }
  r.sim("error_rate",
        r.attempted ? static_cast<double>(r.failed) /
                          static_cast<double>(r.attempted)
                    : 1.0,
        "share", "failed / attempted operations");
  nibench::print(o, r);
  std::fflush(stdout);
  return r.failed == 0 ? 0 : 1;
}
