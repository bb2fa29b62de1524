// Shared helpers for the benchmark binaries.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>

namespace lcr::bench {

/// Environment override helpers so every bench can be scaled up/down:
///   LCR_BENCH_SCALE  - log2 graph size (default per bench)
///   LCR_BENCH_HOSTS  - max simulated hosts (default per bench)
///   LCR_BENCH_PR_ITERS - pagerank iterations
inline unsigned env_scale(unsigned dflt) {
  if (const char* s = std::getenv("LCR_BENCH_SCALE"))
    return static_cast<unsigned>(std::atoi(s));
  return dflt;
}

inline int env_hosts(int dflt) {
  if (const char* s = std::getenv("LCR_BENCH_HOSTS")) return std::atoi(s);
  return dflt;
}

inline std::uint32_t env_pr_iters(std::uint32_t dflt) {
  if (const char* s = std::getenv("LCR_BENCH_PR_ITERS"))
    return static_cast<std::uint32_t>(std::atoi(s));
  return dflt;
}

/// LCR_BENCH_VERTS - vertex-count cap for vertex-sweep benches (the sweep
/// stops at the first scale whose 2^scale exceeds this). CI sets a small
/// cap so the gated sweep stays cheap; local runs default to 2^22.
inline std::uint64_t env_verts(std::uint64_t dflt) {
  if (const char* s = std::getenv("LCR_BENCH_VERTS"))
    return static_cast<std::uint64_t>(std::atoll(s));
  return dflt;
}

/// LCR_BENCH_DROP - fault-injection drop rate (0 = reliable fabric). A
/// non-zero rate also arms proportional dup/corrupt rates (chaos profile).
inline double env_drop(double dflt) {
  if (const char* s = std::getenv("LCR_BENCH_DROP")) return std::atof(s);
  return dflt;
}

/// LCR_BENCH_APP - restrict a multi-app bench to one app (empty = all).
inline std::string env_app() {
  if (const char* s = std::getenv("LCR_BENCH_APP")) return s;
  return {};
}

/// Value of `<flag> <value>` on the command line; empty when the flag is
/// absent. A flag given last, with no value, exits 2 with a message rather
/// than being silently ignored.
inline std::string arg_value(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) != flag) continue;
    if (i + 1 == argc) {
      std::fprintf(stderr, "%s needs a value\n", flag);
      std::exit(2);
    }
    return argv[i + 1];
  }
  return {};
}

/// `<flag> <value>` on the command line, else env `env`, else empty.
inline std::string arg_or_env(int argc, char** argv, const char* flag,
                              const char* env) {
  std::string v = arg_value(argc, argv, flag);
  if (v.empty())
    if (const char* s = std::getenv(env)) v = s;
  return v;
}

/// JSON artifact path; empty means no JSON is written.
inline std::string json_out(int argc, char** argv) {
  return arg_or_env(argc, argv, "--json-out", "LCR_BENCH_JSON");
}

/// Chrome-trace output path; empty means tracing stays off.
inline std::string trace_out(int argc, char** argv) {
  return arg_or_env(argc, argv, "--trace-out", "LCR_TRACE_OUT");
}

/// Opens a JSON artifact for writing; exits 1 with a message if it cannot.
inline std::FILE* open_json(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  return f;
}

/// Ends a JSON artifact whose last value is its entry array.
inline void close_json(std::FILE* f, const std::string& path) {
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("json written to %s\n", path.c_str());
}

/// Flat {"key": number} JSON, one key per line: the checked-in baselines
/// of the Fig-6 share guard and the lid-map memory gate.
inline std::map<std::string, double> load_flat_json(const std::string& path) {
  std::map<std::string, double> vals;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    char key[64];
    double value = 0.0;
    if (std::sscanf(line.c_str(), " \"%63[^\"]\": %lf", key, &value) == 2)
      vals[key] = value;
  }
  return vals;
}

inline bool write_flat_json(const std::string& path,
                            const std::map<std::string, double>& vals) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n");
  std::size_t i = 0;
  for (const auto& [key, value] : vals)
    std::fprintf(f, "  \"%s\": %.6f%s\n", key.c_str(), value,
                 ++i < vals.size() ? "," : "");
  std::fprintf(f, "}\n");
  std::fclose(f);
  return true;
}

}  // namespace lcr::bench
