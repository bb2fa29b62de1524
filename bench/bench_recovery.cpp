// Recovery experiments (DESIGN.md §13, EXPERIMENTS.md "Recovery"):
//
//   1. Asynchronous checkpoint overhead: failure-free runs with the
//      double-buffered per-host checkpoint staged every K rounds vs the
//      K=0 baseline. Target: < 10% total-time overhead at K=8 - the save
//      path is a bounded memcpy, the checksum seals off-thread.
//
//   2. Recovery latency vs K: kill one host mid-run, roll the cluster back
//      to the last stable checkpoint, re-admit the victim under a new
//      fabric epoch and re-execute. Smaller K = less re-executed work but
//      more staging; the table shows both sides of the trade.
//
// Every failure run prints its kill schedule via to_string(FaultProfile)
// so the exact fault configuration is part of the record.
//
// `--json-out <file>` (or env LCR_BENCH_JSON) writes the measurements as a
// JSON artifact for CI history.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench_support/cluster_configs.hpp"
#include "bench_support/runner.hpp"
#include "bench_support/table.hpp"
#include "fabric/config.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"

using namespace lcr;

namespace {

std::string fmt_pct(double frac) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.1f%%", frac * 100.0);
  return buf;
}

struct Entry {
  std::string section;  // "overhead" | "recovery"
  std::string app;
  std::int64_t k = 0;
  double total_s = 0.0;
  double recovery_s = 0.0;
  std::int64_t rollback_round = -1;
  std::int64_t replayed = 0;
  std::uint64_t rollback_rounds = 0;  // ckpt.rollback_rounds counter
  std::uint64_t kills = 0;
  std::uint64_t rounds = 0;
};

void write_json(const std::string& path, const std::vector<Entry>& all) {
  std::FILE* f = bench::open_json(path);
  std::fprintf(f, "{\n  \"bench\": \"recovery\",\n  \"entries\": [\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Entry& e = all[i];
    std::fprintf(f,
                 "    {\"section\": \"%s\", \"app\": \"%s\", \"k\": %lld, "
                 "\"total_s\": %.6f, \"recovery_s\": %.6f, "
                 "\"rollback_round\": %lld, \"replayed\": %lld, "
                 "\"rollback_rounds\": %llu, \"kills\": %llu, "
                 "\"rounds\": %llu}%s\n",
                 e.section.c_str(), e.app.c_str(),
                 static_cast<long long>(e.k), e.total_s, e.recovery_s,
                 static_cast<long long>(e.rollback_round),
                 static_cast<long long>(e.replayed),
                 static_cast<unsigned long long>(e.rollback_rounds),
                 static_cast<unsigned long long>(e.kills),
                 static_cast<unsigned long long>(e.rounds),
                 i + 1 < all.size() ? "," : "");
  }
  bench::close_json(f, path);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::json_out(argc, argv);
  std::vector<Entry> entries;
  const unsigned scale = bench::env_scale(10);
  const int hosts = bench::env_hosts(4);
  const std::uint32_t pr_iters = bench::env_pr_iters(16);

  const bench::ClusterProfile profile = bench::stampede2_like();
  graph::Csr g = graph::rmat(scale, 8.0);
  graph::Csr sym = graph::symmetrize(g);

  std::printf("=== Recovery: async checkpoint overhead + rollback latency "
              "===\n");
  std::printf("(rmat scale %u, %d hosts, %zu threads/host, %s fabric)\n\n",
              scale, hosts, profile.compute_threads, profile.name.c_str());

  auto base_spec = [&](const char* app) {
    bench::RunSpec spec;
    spec.app = app;
    spec.hosts = hosts;
    spec.threads = profile.compute_threads;
    spec.fabric = profile.fabric;
    spec.pagerank_iters = pr_iters;
    if (std::string(app) == "cc" || std::string(app) == "labelprop")
      spec.policy = graph::PartitionPolicy::OutgoingEdgeCut;
    else
      spec.source = bench::choose_source(g);
    return spec;
  };
  auto graph_for = [&](const char* app) -> const graph::Csr& {
    return (std::string(app) == "cc" || std::string(app) == "labelprop")
               ? sym
               : g;
  };

  // ------------------------------------------------------------------
  // 1. Failure-free checkpoint overhead vs interval K.
  // ------------------------------------------------------------------
  std::printf("--- checkpoint overhead (failure-free, vs K=0 baseline) "
              "---\n");
  for (const char* app : {"pagerank", "labelprop"}) {
    bench::Table table({"K", "total(s)", "overhead", "rounds"});
    double baseline = 0.0;
    for (std::int64_t k : {0, 16, 8, 4, 2}) {
      bench::RunSpec spec = base_spec(app);
      spec.ckpt_interval = k;
      const auto r = bench::run_app(graph_for(app), spec);
      if (k == 0) baseline = r.total_s;
      table.add_row({std::to_string(k), bench::fmt_seconds(r.total_s),
                     k == 0 ? "-" : fmt_pct(r.total_s / baseline - 1.0),
                     std::to_string(r.rounds)});
      Entry e;
      e.section = "overhead";
      e.app = app;
      e.k = k;
      e.total_s = r.total_s;
      e.rounds = r.rounds;
      entries.push_back(e);
    }
    std::printf("%s:\n", app);
    table.print(std::cout);
    std::printf("(target: < 10%% at K=8)\n\n");
  }

  // ------------------------------------------------------------------
  // 2. Kill + rollback: recovery latency and re-execution cost vs K.
  // ------------------------------------------------------------------
  const std::int64_t kill_round =
      static_cast<std::int64_t>(pr_iters) / 2 + 1;
  std::printf("--- recovery latency vs checkpoint interval (pagerank) "
              "---\n");
  {
    bench::RunSpec probe = base_spec("pagerank");
    probe.fabric.fault.kill_host = 1;
    probe.fabric.fault.kill_at_round = kill_round;
    std::printf("fault profile: %s\n",
                fabric::to_string(probe.fabric.fault).c_str());
  }
  bench::Table table({"K", "total(s)", "recovery(s)", "rollback@",
                      "replayed", "kills", "unfailed(s)"});
  bench::RunSpec clean = base_spec("pagerank");
  const double unfailed = bench::run_app(g, clean).total_s;
  for (std::int64_t k : {2, 4, 8, 16}) {
    bench::RunSpec spec = base_spec("pagerank");
    spec.ckpt_interval = k;
    spec.fabric.fault.kill_host = 1;
    spec.fabric.fault.kill_at_round = kill_round;
    const auto r = bench::run_app(g, spec);
    const std::int64_t replayed =
        r.rollback_round >= 0 ? kill_round - r.rollback_round : kill_round;
    table.add_row({std::to_string(k), bench::fmt_seconds(r.total_s),
                   bench::fmt_seconds(r.recovery_s),
                   std::to_string(r.rollback_round),
                   std::to_string(replayed), std::to_string(r.kills),
                   bench::fmt_seconds(unfailed)});
    Entry e;
    e.section = "recovery";
    e.app = "pagerank";
    e.k = k;
    e.total_s = r.total_s;
    e.recovery_s = r.recovery_s;
    e.rollback_round = r.rollback_round;
    e.replayed = replayed;
    const auto rr = r.telemetry.find("ckpt.rollback_rounds");
    e.rollback_rounds = rr == r.telemetry.end() ? 0 : rr->second;
    e.kills = r.kills;
    e.rounds = r.rounds;
    entries.push_back(e);
  }
  table.print(std::cout);
  std::printf("(kill fires at round %lld of %u; 'replayed' = rounds "
              "re-executed after rollback)\n",
              static_cast<long long>(kill_round), pr_iters);
  if (!json_path.empty()) write_json(json_path, entries);
  return 0;
}
