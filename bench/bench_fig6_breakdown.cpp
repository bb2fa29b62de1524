// Figure 6: breakdown of execution time into computation and non-overlapped
// communication, kron graph at the maximum host count, per backend.
//
// Paper shape: the computation component is essentially identical across
// communication layers; "the changes in performance come from the
// communication component", where LCI is best or comparable to MPI-RMA and
// MPI-Probe is worst.
//
// With `--trace-out <file>` (or env LCR_TRACE_OUT) the run enables telemetry,
// cross-checks the span totals against the timer-based breakdown after every
// configuration, and writes the last configuration's Chrome trace JSON
// (earlier configurations are reset by the runner so warm-up and neighbour
// runs never pollute a measured trace). LCR_BENCH_APP=bfs narrows the sweep
// so the trace holds the configuration you asked for.
#include <cstdio>
#include <iostream>
#include <map>
#include <string>

#include "bench/bench_common.hpp"
#include "bench_support/cluster_configs.hpp"
#include "bench_support/runner.hpp"
#include "bench_support/table.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "telemetry/telemetry.hpp"

using namespace lcr;

namespace {

/// Sums this trace's per-host span time for `name` and returns the maximum
/// across hosts -- the same reduction RunResult applies to its timers.
double max_host_span_s(const std::vector<telemetry::TraceEvent>& events,
                       const char* name) {
  std::map<std::uint32_t, double> per_host;
  for (const auto& e : events)
    if (e.phase == 'X' && std::string(e.name) == name)
      per_host[e.pid] += static_cast<double>(e.dur_ns) * 1e-9;
  double best = 0.0;
  for (const auto& [host, s] : per_host) best = std::max(best, s);
  return best;
}

void print_span_check(const char* app, const char* backend,
                      const bench::RunResult& r) {
  const auto events = telemetry::collect_trace();
  // "compute" spans wrap exactly the regions the apps time into compute_s;
  // "sync_phase" spans wrap the regions the engine times into comm_s.
  const double span_compute = max_host_span_s(events, "compute");
  const double span_comm = max_host_span_s(events, "sync_phase");
  const auto pct = [](double span, double timer) {
    return timer > 0.0 ? 100.0 * span / timer : 100.0;
  };
  std::printf("  [trace] %s/%s: compute spans %.4fs vs timer %.4fs (%.1f%%), "
              "sync_phase spans %.4fs vs comm %.4fs (%.1f%%)\n",
              app, backend, span_compute, r.compute_s,
              pct(span_compute, r.compute_s), span_comm, r.comm_s,
              pct(span_comm, r.comm_s));
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned scale = bench::env_scale(10);
  const int hosts = bench::env_hosts(8);
  const std::uint32_t pr_iters = bench::env_pr_iters(8);
  const std::string app_filter = bench::env_app();
  const double drop = bench::env_drop(0.0);
  const std::string trace_path = bench::trace_out(argc, argv);
  if (!trace_path.empty()) telemetry::set_enabled(true);
  const std::string baseline_path =
      bench::arg_or_env(argc, argv, "--perf-baseline", "LCR_PERF_BASELINE");
  const std::string perf_write = bench::arg_value(argc, argv, "--perf-write");

  std::printf("=== Figure 6: compute vs non-overlapped communication, kron "
              "at %d hosts ===\n\n", hosts);
  if (drop > 0.0)
    std::printf("fault injection: drop %.1f%%, dup %.1f%%, corrupt %.2f%% "
                "(seed 42)\n\n", 100.0 * drop, 100.0 * drop / 5.0,
                100.0 * drop / 10.0);

  const bench::ClusterProfile profile = bench::stampede2_like();
  graph::GenOptions opt;
  opt.make_weights = true;
  graph::Csr base = graph::kron(scale, 16.0, opt);
  graph::Csr sym = graph::symmetrize(base);

  bench::Table table({"app", "backend", "compute(s)", "comm(s)", "total(s)",
                      "comm %", "ser %", "apply %", "direct %"});
  std::map<std::string, std::uint64_t> last_snapshot;
  std::map<std::string, double> measured_shares;
  for (const char* app : {"bfs", "cc", "sssp", "pagerank"}) {
    if (!app_filter.empty() && app_filter != app) continue;
    const graph::Csr& g = std::string(app) == "cc" ? sym : base;
    for (auto kind : {comm::BackendKind::Lci, comm::BackendKind::MpiProbe,
                      comm::BackendKind::MpiRma}) {
      bench::RunSpec spec;
      spec.app = app;
      spec.backend = kind;
      spec.hosts = hosts;
      spec.threads = profile.compute_threads;
      spec.source = bench::choose_source(g);
      spec.pagerank_iters = pr_iters;
      spec.fabric = profile.fabric;
      if (drop > 0.0) {
        spec.fabric.fault.seed = 42;
        spec.fabric.fault.drop_rate = drop;
        spec.fabric.fault.dup_rate = drop / 5.0;
        spec.fabric.fault.corrupt_rate = drop / 10.0;
      }
      const bench::RunResult r = bench::run_app(g, spec);
      char pct[16];
      std::snprintf(pct, sizeof(pct), "%.0f%%",
                    100.0 * r.comm_s / std::max(r.total_s, 1e-9));
      // Serialization share: cluster-wide gather/encode nanoseconds over
      // the total compute-thread-seconds available to the run.
      const auto gather_it = r.telemetry.find("sync.gather_ns");
      const double gather_s =
          gather_it != r.telemetry.end()
              ? static_cast<double>(gather_it->second) * 1e-9
              : 0.0;
      const double thread_s = r.total_s * static_cast<double>(hosts) *
                              static_cast<double>(spec.threads);
      const double ser_share = gather_s / std::max(thread_s, 1e-9);
      measured_shares[std::string(app) + "/" + comm::to_string(kind)] =
          ser_share;
      // Receive-side apply share: cluster-wide decode/scatter nanoseconds
      // over the same compute-thread-seconds denominator. Guarded like the
      // serialization share so a decode/apply slowdown trips CI.
      const auto apply_it = r.telemetry.find("sync.apply_ns");
      const double apply_s =
          apply_it != r.telemetry.end()
              ? static_cast<double>(apply_it->second) * 1e-9
              : 0.0;
      const double apply_share = apply_s / std::max(thread_s, 1e-9);
      measured_shares[std::string(app) + "/" + comm::to_string(kind) +
                      "#apply"] = apply_share;
      // Direct-write share: fraction of sync messages that went out as
      // one-sided puts (DESIGN.md §15). Baselined with the "#direct" key so
      // CI notices when the direct path silently stops engaging (the ser%
      // win would quietly evaporate with it).
      const auto direct_it = r.telemetry.find("sync.direct_sends");
      const auto msgs_it = r.telemetry.find("abelian.messages_sent");
      const double direct_sends =
          direct_it != r.telemetry.end()
              ? static_cast<double>(direct_it->second)
              : 0.0;
      const double msgs_sent = msgs_it != r.telemetry.end()
                                   ? static_cast<double>(msgs_it->second)
                                   : 0.0;
      const double direct_share = direct_sends / std::max(msgs_sent, 1.0);
      measured_shares[std::string(app) + "/" + comm::to_string(kind) +
                      "#direct"] = direct_share;
      char ser_pct[16];
      std::snprintf(ser_pct, sizeof(ser_pct), "%.1f%%", 100.0 * ser_share);
      char apply_pct[16];
      std::snprintf(apply_pct, sizeof(apply_pct), "%.1f%%",
                    100.0 * apply_share);
      char direct_pct[16];
      std::snprintf(direct_pct, sizeof(direct_pct), "%.1f%%",
                    100.0 * direct_share);
      table.add_row({app, comm::to_string(kind),
                     bench::fmt_seconds(r.compute_s),
                     bench::fmt_seconds(r.comm_s),
                     bench::fmt_seconds(r.total_s), pct, ser_pct, apply_pct,
                     direct_pct});
      if (!trace_path.empty()) {
        print_span_check(app, comm::to_string(kind), r);
        last_snapshot = r.telemetry;
      }
    }
  }
  table.print(std::cout);
  std::printf("\nshape to check: compute(s) roughly equal across backends "
              "per app; differences live in comm(s).\n");
  if (!trace_path.empty()) {
    if (telemetry::write_chrome_trace(trace_path, last_snapshot))
      std::printf("trace (last configuration) written to %s\n",
                  trace_path.c_str());
    else
      std::fprintf(stderr, "failed to write trace to %s\n",
                   trace_path.c_str());
  }

  // Serialization-share perf guard. The share is the fraction of the
  // cluster's compute-thread time spent in gather/encode: sync.gather_ns
  // (summed over all hosts' compute threads) / (wall total * hosts *
  // threads). A ratio, so machine-speed differences largely cancel; CI
  // compares against the checked-in bench/fig6_baseline.json and fails on a
  // > 25% relative regression (plus a small absolute slack for timer noise
  // on tiny runs).
  if (!perf_write.empty()) {
    if (!bench::write_flat_json(perf_write, measured_shares)) {
      std::fprintf(stderr, "failed to write %s\n", perf_write.c_str());
      return 1;
    }
    std::printf("serialization-share baseline written to %s\n",
                perf_write.c_str());
  }
  if (!baseline_path.empty()) {
    const auto baseline = bench::load_flat_json(baseline_path);
    if (baseline.empty()) {
      std::fprintf(stderr, "no baseline entries in %s\n",
                   baseline_path.c_str());
      return 1;
    }
    int regressions = 0;
    for (const auto& [key, share] : measured_shares) {
      const auto it = baseline.find(key);
      if (it == baseline.end()) continue;
      // Cost shares (gather/apply) regress upward; the direct-engagement
      // share regresses downward (the put path silently disengaging).
      const bool lower_bound = key.size() > 7 &&
                               key.compare(key.size() - 7, 7, "#direct") == 0;
      const double limit = lower_bound ? it->second * 0.75 - 0.02
                                       : it->second * 1.25 + 0.02;
      const bool bad = lower_bound ? share < limit : share > limit;
      std::printf("  [perf] %-22s share %.4f vs baseline %.4f "
                  "(limit %s%.4f) %s\n",
                  key.c_str(), share, it->second, lower_bound ? ">=" : "<=",
                  limit, bad ? "REGRESSED" : "ok");
      if (bad) ++regressions;
    }
    if (regressions > 0) {
      std::fprintf(stderr,
                   "%d configuration(s) regressed gather/apply share > 25%% "
                   "over %s\n",
                   regressions, baseline_path.c_str());
      return 1;
    }
  }
  return 0;
}
