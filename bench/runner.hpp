// The sweep harness: everything the deterministic sweep benches share.
//
// A sweep is a grid of independent cells, each a self-contained simulation
// (its own sim::Engine) seeded from the master seed and the cell's grid
// coordinates. The only shared state in the simulation core is thread_local
// or immutable, so cells run in parallel under `--jobs`; every result lands
// in its grid slot, so the table and JSON are byte-identical for any job
// count (only the "jobs" stamp differs).
//
// A sweep describes its scenario as a Plan: cells, coordinates, how to run
// one, its gates, its JSON fields and which of them the table shows. Sweep
// owns the rest: the `--out`/`--seed`/`--jobs`/`--smoke` flags and the
// unknown-flag check, cell seeds, the optional same-seed replay gate, the
// Verdict ledger, the table and its "^ FAIL:" lines, the exit code, and the
// document {"bench", stamp, "seed", <header>, "ok", "cells": [...]}.
//
// Adding a sweep: write `Result run_cell(const Spec&, std::uint64_t seed)`
// that draws every random number from `seed`. In main, construct
// `bench::Sweep sweep{argc, argv, "<bench>", "BENCH_<x>.json", <seed>}`,
// read any extra flags, build the grid (smaller under `sweep.smoke`), and
// `return sweep.run(bench::Plan<Spec, Result>{...});`. Add its `--smoke`
// run to CI's `--jobs=4` vs `--jobs=1` diff.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "cli.hpp"

namespace nistream::bench {

/// Default worker count: one per hardware thread (never 0 — unknown
/// concurrency means sequential).
inline unsigned default_jobs() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Value of `--jobs=N`, defaulting to default_jobs(). 0 is treated as 1.
inline unsigned flag_jobs(int argc, char** argv) {
  const auto v = flag_u64(argc, argv, "jobs", default_jobs());
  if (v == 0) return 1;
  return static_cast<unsigned>(std::min<std::uint64_t>(v, 1024));
}

/// Run `fn(i)` for every i in [0, n), on up to `jobs` threads. Blocks until
/// all cells complete. `fn` must be callable concurrently from different
/// threads for distinct cells and must not throw (a sweep cell records its
/// failure in its result slot instead).
template <class Fn>
void run_cells(std::size_t n, unsigned jobs, Fn&& fn) {
  if (jobs <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      fn(i);
    }
  };
  std::vector<std::thread> pool;
  const auto k = static_cast<unsigned>(
      std::min<std::size_t>(jobs, n));
  pool.reserve(k);
  for (unsigned t = 0; t < k; ++t) pool.emplace_back(worker);
  for (auto& th : pool) th.join();
}

/// One splitmix64 step: advances `state` and returns the next output. The
/// second multiplier is 0x94d4b9f2a6c3e1b5, not the published
/// 0x94d049bb133111eb; BENCH_session.json's client arrivals were drawn with
/// it, and nibench/common.hpp keeps a frozen copy for its storm.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d4b9f2a6c3e1b5ull;
  return z ^ (z >> 31);
}

/// FNV-1a over the little-endian bytes of 64-bit words: what a same-seed
/// replay compares. The offset basis is 1469598103934665603 (the published
/// one has one more digit); nibench/common.hpp's copy must stay equal.
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

/// A cell's verdict: every failed gate appends its reason.
struct Verdict {
  bool ok = true;
  bool replay_identical = true;  // false only if the replay gate diverged
  std::string fail_reason;       // reasons joined by "; "

  void fail(const std::string& why) {
    ok = false;
    fail_reason += (fail_reason.empty() ? "" : "; ") + why;
  }
};

/// `s` as a JSON string literal: quotes, backslashes and control
/// characters escaped.
inline std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof esc, "\\u%04x", static_cast<unsigned>(c));
      out += esc;
    } else {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
  }
  return out + '"';
}

/// Field writer for the tracked BENCH_*.json files. Each call appends one
/// `"key": value` to an open object; fields are separated by `sep` unless
/// wrap(n) put the next one on a new line indented n spaces. The caller
/// picks each number's format: u — integer; g — printf %g, which is also
/// std::ostream's default; f — fixed with `places` decimals.
class Json {
 public:
  /// Every field written, nested keys as "outer.inner", to its JSON text.
  using Record = std::map<std::string, std::string>;

  explicit Json(std::ostream& out, std::string_view open = "{",
                std::string_view sep = ", ", Record* record = nullptr,
                std::string prefix = {})
      : out_{out}, sep_{sep}, record_{record}, prefix_{std::move(prefix)} {
    out_ << open;
  }

  Json& u(std::string_view k, std::uint64_t v) {
    return put(k, std::to_string(v));
  }
  Json& g(std::string_view k, double v) { return put(k, number("%.*g", 6, v)); }
  Json& f(std::string_view k, double v, int places) {
    return put(k, number("%.*f", places, v));
  }
  Json& b(std::string_view k, bool v) { return put(k, v ? "true" : "false"); }
  Json& s(std::string_view k, std::string_view v) {
    return put(k, json_string(v));
  }
  Json& strings(std::string_view k, const std::vector<std::string>& v) {
    std::string text;
    for (const auto& e : v) text += (text.empty() ? "" : ", ") + json_string(e);
    return put(k, "[" + text + "]");
  }
  /// `"key": {...}`, filled by `fill(Json&)`.
  template <class Fn>
  Json& object(std::string_view k, Fn&& fill) {
    key(k);
    Json inner{out_, "{", ", ", record_, prefix_ + std::string{k} + "."};
    fill(inner);
    inner.close();
    return *this;
  }
  /// `"key": [`, then one object per line indented `indent` spaces, filled
  /// by `item(i, Json&)`, then `]` indented `close_indent` spaces.
  template <class Fn>
  Json& list(std::string_view k, std::size_t n, std::size_t indent,
             std::size_t close_indent, Fn&& item) {
    key(k) << "[\n";
    for (std::size_t i = 0; i < n; ++i) {
      Json inner{out_ << std::string(indent, ' ')};
      item(i, inner);
      inner.close(i + 1 < n ? "},\n" : "}\n");
    }
    out_ << std::string(close_indent, ' ') << ']';
    return *this;
  }
  /// `"ok": true`, or `"ok": false, "fail_reason": "..."`.
  Json& verdict(const Verdict& v) {
    b("ok", v.ok);
    return v.ok ? *this : s("fail_reason", v.fail_reason);
  }
  Json& wrap(std::size_t indent) {
    next_sep_ = ",\n" + std::string(indent, ' ');
    return *this;
  }
  Json& record_into(Record* record) {
    record_ = record;
    return *this;
  }
  void close(std::string_view tail = "}") { out_ << tail; }

 private:
  static std::string number(const char* fmt, int places, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, fmt, places, v);
    return buf;
  }
  std::ostream& key(std::string_view k) {
    if (!first_) out_ << (next_sep_.empty() ? sep_ : next_sep_);
    first_ = false;
    next_sep_.clear();
    return out_ << json_string(k) << ": ";
  }
  Json& put(std::string_view k, const std::string& text) {
    key(k) << text;
    if (record_) (*record_)[prefix_ + std::string{k}] = text;
    return *this;
  }

  std::ostream& out_;
  std::string sep_, next_sep_;
  Record* record_;
  std::string prefix_;
  bool first_ = true;
};

/// Starts a tracked JSON document: `{`, the "bench" key and the provenance
/// stamp. `jobs` records the worker count the sweep ran under; it is the
/// ONLY line allowed to differ between `--jobs 1` and `--jobs N` runs of a
/// deterministic sweep (CI diffs the rest). Returns a writer for the other
/// top-level fields, one per line; the caller ends it with `close("\n}\n")`.
inline Json open_doc(std::ostream& out, std::string_view bench,
                     unsigned jobs) {
  out << "{\n  \"bench\": \"" << bench << "\",\n"
      << "  \"schema_version\": " << kJsonSchemaVersion << ",\n"
      << "  \"git_rev\": \"" << kGitRevAtStartup << "\",\n"
      << "  \"jobs\": " << jobs << ",\n";
  return Json{out, "  ", ",\n  "};
}

/// One sweep's scenario. Of its callables only `coord` and `replay` may be
/// left unset.
template <class Spec, class Result>
struct Plan {
  std::string title;  // banner: "==== <title>, seed=..., jobs=... ===="
  std::vector<Spec> cells;
  /// Cell seed = master seed ^ coord(spec), a function of the cell's grid
  /// coordinates only. Unset: every cell runs on the master seed.
  std::function<std::uint64_t(const Spec&)> coord;
  std::function<Result(const Spec&, std::uint64_t seed)> run;
  /// Set: every cell runs twice from its seed, and different fingerprints
  /// fail it with "same-seed replay diverged" ahead of its own gates.
  std::function<std::uint64_t(const Result&)> replay;
  std::function<void(const Result&, Verdict&)> gates;
  std::function<void(Json&)> header;  // document fields after "seed"
  std::function<void(Json&, const Result&, const Verdict&)> fields;
  /// The table: these cell fields by key ("outer.inner" when nested).
  std::vector<std::string> columns;
  bool json_ok = true;  // false: no top-level "ok" (ablate_policy's schema)
};

/// The harness: parses the shared flags at construction, runs a Plan.
class Sweep {
 public:
  Sweep(int argc, char** argv, std::string bench,
        std::string_view default_out, std::uint64_t default_seed)
      : out{out_path(argc, argv, default_out)},
        seed{flag_u64(argc, argv, "seed", default_seed)},
        jobs{flag_jobs(argc, argv)},
        smoke{flag_present(argc, argv, "smoke")},
        argc_{argc},
        argv_{argv},
        bench_{std::move(bench)} {}

  const std::string out;
  const std::uint64_t seed;
  const unsigned jobs;
  const bool smoke;

  /// Runs every cell, prints the table, writes the JSON, and returns the
  /// exit code: 0 when every cell passed and the JSON was written, else 1.
  /// Exits 2 first if argv holds a flag no one asked for.
  template <class Spec, class Result>
  int run(const Plan<Spec, Result>& plan) const {
    reject_unknown_flags(argc_, argv_);
    std::printf("==== %s, seed=%llu, jobs=%u%s ====\n", plan.title.c_str(),
                static_cast<unsigned long long>(seed), jobs,
                smoke ? " (smoke)" : "");
    const std::size_t n = plan.cells.size();
    std::vector<Result> results(n);
    std::vector<Verdict> verdicts(n);
    run_cells(n, jobs, [&](std::size_t i) {
      const Spec& spec = plan.cells[i];
      const std::uint64_t cell_seed =
          plan.coord ? seed ^ plan.coord(spec) : seed;
      results[i] = plan.run(spec, cell_seed);
      Verdict& v = verdicts[i];
      if (plan.replay) {
        v.replay_identical =
            plan.replay(plan.run(spec, cell_seed)) == plan.replay(results[i]);
        if (!v.replay_identical) v.fail("same-seed replay diverged");
      }
      plan.gates(results[i], v);
    });
    const bool all_ok = std::all_of(verdicts.begin(), verdicts.end(),
                                    [](const Verdict& v) { return v.ok; });

    std::ostringstream json;
    std::vector<Json::Record> records(n);
    Json doc = open_doc(json, bench_, jobs);
    doc.u("seed", seed);
    plan.header(doc);
    if (plan.json_ok) doc.b("ok", all_ok);
    doc.list("cells", n, 4, 2, [&](std::size_t i, Json& cell) {
      plan.fields(cell.record_into(&records[i]), results[i], verdicts[i]);
    });
    doc.close("\n}\n");

    print_table(plan.columns, records, verdicts);
    std::ofstream file{out};
    if (!(file << json.str())) {
      std::printf("could not write %s\n", out.c_str());
      return 1;
    }
    std::printf("wrote %s\n", out.c_str());
    return all_ok ? 0 : 1;
  }

 private:
  /// One right-aligned column per key, as wide as its widest entry; a cell
  /// without that field shows "-".
  static void print_table(const std::vector<std::string>& columns,
                          const std::vector<Json::Record>& records,
                          const std::vector<Verdict>& verdicts) {
    std::vector<std::vector<std::string>> rows{columns};
    std::vector<std::size_t> width(columns.size());
    for (const auto& record : records) {
      auto& row = rows.emplace_back();
      for (const auto& key : columns) {
        const auto it = record.find(key);
        const std::string t = it == record.end() ? "-" : it->second;
        row.push_back(t[0] == '"' ? t.substr(1, t.size() - 2) : t);
      }
    }
    for (const auto& row : rows) {
      for (std::size_t c = 0; c < row.size(); ++c) {
        width[c] = std::max(width[c], row[c].size());
      }
    }
    for (std::size_t r = 0; r < rows.size(); ++r) {
      for (std::size_t c = 0; c < rows[r].size(); ++c) {
        std::printf(" %*s", static_cast<int>(width[c]), rows[r][c].c_str());
      }
      std::printf("\n");
      if (r > 0 && !verdicts[r - 1].ok) {
        std::printf("  ^ FAIL: %s\n", verdicts[r - 1].fail_reason.c_str());
      }
    }
  }

  int argc_;
  char** argv_;
  std::string bench_;
};

}  // namespace nistream::bench
