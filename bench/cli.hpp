// Tiny shared argv parsing for the bench binaries.
//
// Every bench takes an optional positional output path plus `--key=value`
// (or `--key value`) flags, so a run is reproducible from its command line
// alone (the seed in particular lands in the output JSON). Every flag_*
// call remembers the name it asked for, so reject_unknown_flags() can turn a
// typo (`--sed=7`) into an error instead of a silent default. No dependency.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace nistream::bench {

namespace detail {

/// Every flag name the bench has asked about so far.
inline std::vector<std::string>& asked_flags() {
  static std::vector<std::string> names;
  return names;
}

inline void remember(std::string_view name) {
  auto& names = asked_flags();
  if (std::find(names.begin(), names.end(), name) == names.end()) {
    names.emplace_back(name);
  }
}

/// Value of `--<name>=<value>` or `--<name> <value>` in argv, or nullopt when
/// the flag is absent. A flag present without a value is a hard error.
inline std::optional<std::string> flag_value(int argc, char** argv,
                                             std::string_view name) {
  remember(name);
  const std::string prefix = "--" + std::string{name};
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg{argv[i]};
    if (!arg.starts_with(prefix)) continue;
    if (arg.size() == prefix.size()) {  // --name <value>
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", prefix.c_str());
        std::exit(2);
      }
      return std::string{argv[i + 1]};
    }
    if (arg[prefix.size()] == '=') {  // --name=<value>
      return std::string{arg.substr(prefix.size() + 1)};
    }
    // A longer flag sharing the prefix (--outdir vs --out): not ours.
  }
  return std::nullopt;
}

/// Parse a whole token as a u64 (decimal or 0x-prefixed hex).
inline std::optional<std::uint64_t> parse_u64(const std::string& token) {
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(token.c_str(), &end, 0);
  if (token.empty() || end != token.c_str() + token.size()) {
    return std::nullopt;
  }
  return v;
}

}  // namespace detail

/// Value of `--<name>=<u64>` or `--<name> <u64>` in argv, or `fallback` when
/// absent. Accepts decimal and 0x-prefixed hex. A missing or malformed value
/// is a hard error — silently running with the wrong seed would poison a
/// "reproducible" result.
inline std::uint64_t flag_u64(int argc, char** argv, std::string_view name,
                              std::uint64_t fallback) {
  const auto value = detail::flag_value(argc, argv, name);
  if (!value) return fallback;
  const auto v = detail::parse_u64(*value);
  if (!v) {
    std::fprintf(stderr, "bad --%s value: '%s'\n", std::string{name}.c_str(),
                 value->c_str());
    std::exit(2);
  }
  return *v;
}

/// Value of `--<name>=<str>` or `--<name> <str>` in argv, or `fallback`
/// when absent. A flag present without a value is a hard error.
inline std::string flag_str(int argc, char** argv, std::string_view name,
                            std::string_view fallback) {
  return detail::flag_value(argc, argv, name)
      .value_or(std::string{fallback});
}

/// Value of `--<name>=<a,b,c>` parsed as comma-separated u64s, or `fallback`
/// (itself a comma-separated literal) when absent. Empty tokens are skipped;
/// a malformed token is a hard error, same policy as flag_u64. Shared by the
/// sweep benches for axis lists (`--shards=1,2,4`, `--sessions=1000,100000`).
inline std::vector<std::uint64_t> flag_u64_list(int argc, char** argv,
                                                std::string_view name,
                                                std::string_view fallback) {
  const std::string value = flag_str(argc, argv, name, fallback);
  std::vector<std::uint64_t> out;
  std::size_t pos = 0;
  while (pos <= value.size()) {
    const std::size_t comma = value.find(',', pos);
    const std::size_t end = comma == std::string::npos ? value.size() : comma;
    if (end > pos) {
      const std::string tok = value.substr(pos, end - pos);
      const auto v = detail::parse_u64(tok);
      if (!v) {
        std::fprintf(stderr, "bad --%s entry: '%s'\n",
                     std::string{name}.c_str(), tok.c_str());
        std::exit(2);
      }
      out.push_back(*v);
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

/// Value of `--<name>=<a,b,c>` parsed as comma-separated strings, or
/// `fallback` (itself a comma-separated literal) when absent. Empty tokens
/// are skipped. Used for name-valued axis lists (`--tenants=alpha,beta`,
/// `--rules=w0,w64,w1024`).
inline std::vector<std::string> flag_str_list(int argc, char** argv,
                                              std::string_view name,
                                              std::string_view fallback) {
  const std::string value = flag_str(argc, argv, name, fallback);
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= value.size()) {
    const std::size_t comma = value.find(',', pos);
    const std::size_t end = comma == std::string::npos ? value.size() : comma;
    if (end > pos) out.push_back(value.substr(pos, end - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

/// True when bare `--<name>` appears in argv (a boolean switch).
inline bool flag_present(int argc, char** argv, std::string_view name) {
  detail::remember(name);
  const std::string flag = "--" + std::string{name};
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

/// First argv entry that is not a `--flag` and not the value of a
/// space-separated `--out <path>` or numeric `--<name> <u64>` (`--jobs 1`),
/// or `fallback`. Benches use this for their output path, which is never a
/// bare number.
inline std::string positional(int argc, char** argv,
                              std::string_view fallback) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg{argv[i]};
    if (arg.starts_with("--")) {
      const bool bare = arg.find('=') == std::string_view::npos;
      if (bare && i + 1 < argc &&
          (arg == "--out" || detail::parse_u64(argv[i + 1]))) {
        ++i;  // next entry is this flag's value, not a positional
      }
      continue;
    }
    return argv[i];
  }
  return std::string{fallback};
}

/// Where a bench should write its JSON: `--out <path>` / `--out=<path>`
/// wins, then the legacy positional path, then `fallback`.
inline std::string out_path(int argc, char** argv, std::string_view fallback) {
  const std::string flagged = flag_str(argc, argv, "out", "");
  if (!flagged.empty()) return flagged;
  return positional(argc, argv, fallback);
}

/// Exits 2 naming the first `--flag` in argv that no flag_* call has asked
/// about. Call it once the bench has read all of its flags; Sweep::run does.
inline void reject_unknown_flags(int argc, char** argv) {
  const auto& names = detail::asked_flags();
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg{argv[i]};
    if (!arg.starts_with("--")) continue;
    // Up to '=' or, when find() gives npos, to the end.
    const std::string_view name = arg.substr(2, arg.find('=') - 2);
    if (std::find(names.begin(), names.end(), name) != names.end()) continue;
    std::string known;
    for (const auto& n : names) known += " --" + n;
    std::fprintf(stderr, "unknown flag --%.*s (known:%s)\n",
                 static_cast<int>(name.size()), name.data(), known.c_str());
    std::exit(2);
  }
}

}  // namespace nistream::bench
