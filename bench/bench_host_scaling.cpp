// Host-count scaling: flat vs hierarchical OOB collectives under the ULT
// host scheduler (DESIGN.md §16).
//
// The paper's runs span hundreds of hosts; simulating them demands (a) hosts
// as cooperative fibers over a small worker pool instead of OS thread groups
// and (b) an O(log N) control plane — the flat sense barrier serializes one
// fetch_add chain per round and the flat allreduce pays THREE such barriers
// around shared scratch.
//
// For hosts in {8, 16, 64, 128, 256} x {flat, tree} this bench reports:
//   * barrier(us)   - mean OOB barrier latency (host 0's wall / rounds)
//   * allreduce(us) - mean u64 sum-allreduce latency
//   * bfs(s)        - small end-to-end BFS wall time (LCI backend)
// plus the tree/flat speedup per host count. Shape to check: tree wins on
// both collective latencies from 64 hosts up, and the gap widens with N.
//
// A second sweep scales the *graph* instead of the host count: rmat at
// 2^{16,18,20,22} vertices (capped by LCR_BENCH_VERTS), reporting the
// compressed lid-map metadata footprint (DESIGN.md §17) - bytes per mirror
// and the ratio vs the seed vector/hash-map representation - plus BFS and
// PageRank end-to-end walls. The byte counts are deterministic (seeded
// generator, exact-capacity builders), so CI gates on them via
// `--mem-baseline bench/mem_baseline.json` (refresh with `--mem-write`);
// wall times are reported but never gated on this ±15% box.
//
// `--json-out <file>` (or env LCR_BENCH_JSON) writes the measurements as a
// JSON artifact for CI history (archived by the perf-smoke job).
// LCR_BENCH_HOSTS caps the host sweep (default 256).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "abelian/cluster.hpp"
#include "apps/reference.hpp"
#include "bench/bench_common.hpp"
#include "bench_support/runner.hpp"
#include "bench_support/table.hpp"
#include "fabric/config.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "runtime/timer.hpp"

using namespace lcr;

namespace {

constexpr int kBarrierRounds = 200;
constexpr int kAllreduceRounds = 200;

struct Entry {
  int hosts = 0;
  std::string coll;  // "flat" | "tree"
  double barrier_us = 0.0;
  double allreduce_us = 0.0;
  double bfs_s = 0.0;
  std::uint64_t sched_yields = 0;
  std::uint64_t sched_switches = 0;
  std::uint64_t graph_mem_bytes = 0;  // summed across hosts, deterministic
  double bytes_per_mirror = 0.0;
};

/// Cluster-wide lid-metadata footprint of a partition (DESIGN.md §17).
struct MemStats {
  std::uint64_t mem_bytes = 0;
  std::uint64_t mem_bytes_uncompressed = 0;
  std::uint64_t mirrors = 0;

  double bytes_per_mirror() const {
    return mirrors == 0 ? 0.0
                        : static_cast<double>(mem_bytes) /
                              static_cast<double>(mirrors);
  }
  double ratio() const {
    return mem_bytes == 0 ? 0.0
                          : static_cast<double>(mem_bytes_uncompressed) /
                                static_cast<double>(mem_bytes);
  }
};

MemStats partition_mem(const graph::Csr& g, int hosts) {
  MemStats m;
  const auto parts = graph::partition(
      g, hosts, graph::PartitionPolicy::CartesianVertexCut);
  for (const auto& p : parts) {
    m.mem_bytes += p.mem_bytes();
    m.mem_bytes_uncompressed += p.mem_bytes_uncompressed();
    m.mirrors += p.num_local - p.num_masters;
  }
  return m;
}

struct VertexEntry {
  unsigned scale = 0;
  std::uint64_t verts = 0;
  std::uint64_t edges = 0;
  int mem_hosts = 0;
  int e2e_hosts = 0;
  MemStats mem;
  double bfs_s = 0.0;
  double pagerank_s = 0.0;
};

abelian::ClusterOptions ult_options(const std::string& coll) {
  abelian::ClusterOptions opts;
  opts.host_sched = abelian::ClusterOptions::HostSched::kUlt;
  opts.oob_coll = coll == "tree" ? abelian::ClusterOptions::OobColl::kTree
                                 : abelian::ClusterOptions::OobColl::kFlat;
  return opts;
}

/// Mean latency of the OOB barrier and the u64 sum-allreduce with all
/// `hosts` participating as fibers. Timed on host 0 across the whole loop;
/// per-op cost includes the fiber scheduling needed to cycle every host
/// through the collective, which is exactly the cost a BSP round pays.
void collective_latency(int hosts, const std::string& coll, Entry* e) {
  abelian::Cluster cluster(hosts, fabric::test_config(), ult_options(coll));
  double barrier_s = 0.0;
  double allreduce_s = 0.0;
  cluster.run([&](int h) {
    rt::Timer timer;
    for (int r = 0; r < kBarrierRounds; ++r) cluster.oob_barrier();
    if (h == 0) barrier_s = timer.elapsed_s();
    cluster.oob_barrier();
    rt::Timer timer2;
    std::uint64_t acc = 0;
    for (int r = 0; r < kAllreduceRounds; ++r)
      acc ^= cluster.oob_allreduce_sum(std::uint64_t{1});
    if (h == 0) allreduce_s = timer2.elapsed_s();
    if (acc == std::uint64_t{0xDEAD}) std::printf("unreachable\n");
  });
  e->barrier_us = barrier_s / kBarrierRounds * 1e6;
  e->allreduce_us = allreduce_s / kAllreduceRounds * 1e6;
}

/// Small end-to-end BFS: the collective plane's share of a real BSP app.
void bfs_e2e(const graph::Csr& g, int hosts, const std::string& coll,
             Entry* e) {
  bench::RunSpec spec;
  spec.app = "bfs";
  spec.hosts = hosts;
  spec.threads = 1;
  spec.host_sched = "ult";
  spec.oob_coll = coll;
  spec.source = bench::choose_source(g);
  const bench::RunResult r = bench::run_app(g, spec);
  e->bfs_s = r.total_s;
  const auto yields = r.telemetry.find("sched.yields");
  if (yields != r.telemetry.end()) e->sched_yields = yields->second;
  const auto switches = r.telemetry.find("sched.switches");
  if (switches != r.telemetry.end()) e->sched_switches = switches->second;
}

void write_json(const std::string& path, const std::vector<Entry>& all,
                const std::vector<VertexEntry>& sweep) {
  std::FILE* f = bench::open_json(path);
  std::fprintf(f, "{\n  \"bench\": \"host_scaling\",\n  \"entries\": [\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Entry& e = all[i];
    std::fprintf(f,
                 "    {\"hosts\": %d, \"coll\": \"%s\", "
                 "\"barrier_us\": %.3f, \"allreduce_us\": %.3f, "
                 "\"bfs_s\": %.6f, \"sched_yields\": %llu, "
                 "\"sched_switches\": %llu, \"graph_mem_bytes\": %llu, "
                 "\"bytes_per_mirror\": %.3f}%s\n",
                 e.hosts, e.coll.c_str(), e.barrier_us, e.allreduce_us,
                 e.bfs_s, static_cast<unsigned long long>(e.sched_yields),
                 static_cast<unsigned long long>(e.sched_switches),
                 static_cast<unsigned long long>(e.graph_mem_bytes),
                 e.bytes_per_mirror, i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"vertex_sweep\": [\n");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const VertexEntry& v = sweep[i];
    std::fprintf(
        f,
        "    {\"scale\": %u, \"verts\": %llu, \"edges\": %llu, "
        "\"mem_hosts\": %d, \"e2e_hosts\": %d, \"graph_mem_bytes\": %llu, "
        "\"graph_mem_bytes_uncompressed\": %llu, \"mirrors\": %llu, "
        "\"bytes_per_mirror\": %.3f, \"ratio\": %.3f, \"bfs_s\": %.6f, "
        "\"pagerank_s\": %.6f}%s\n",
        v.scale, static_cast<unsigned long long>(v.verts),
        static_cast<unsigned long long>(v.edges), v.mem_hosts, v.e2e_hosts,
        static_cast<unsigned long long>(v.mem.mem_bytes),
        static_cast<unsigned long long>(v.mem.mem_bytes_uncompressed),
        static_cast<unsigned long long>(v.mem.mirrors),
        v.mem.bytes_per_mirror(), v.mem.ratio(), v.bfs_s, v.pagerank_s,
        i + 1 < sweep.size() ? "," : "");
  }
  bench::close_json(f, path);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::json_out(argc, argv);
  const int max_hosts = bench::env_hosts(256);
  const std::uint64_t max_verts = bench::env_verts(std::uint64_t{1} << 22);
  const std::string mem_baseline_path =
      bench::arg_or_env(argc, argv, "--mem-baseline", "LCR_MEM_BASELINE");
  const std::string mem_write = bench::arg_value(argc, argv, "--mem-write");

  std::printf("=== Host-count scaling: flat vs tree OOB collectives, hosts "
              "as ULT fibers ===\n");
  std::printf("(%d barrier + %d allreduce rounds per cell; BFS on rmat "
              "scale 9, LCI backend, 1 compute thread/host)\n\n",
              kBarrierRounds, kAllreduceRounds);

  graph::GenOptions opt;
  opt.seed = 1234;
  graph::Csr g = graph::rmat(9, 8.0, opt);

  std::vector<Entry> entries;
  bench::Table table({"hosts", "coll", "barrier(us)", "allreduce(us)",
                      "bfs(s)", "barrier tree/flat", "allred tree/flat"});
  for (int hosts : {8, 16, 64, 128, 256}) {
    if (hosts > max_hosts) break;
    const MemStats host_mem = partition_mem(g, hosts);
    Entry flat_entry;
    for (const char* coll : {"flat", "tree"}) {
      Entry e;
      e.hosts = hosts;
      e.coll = coll;
      e.graph_mem_bytes = host_mem.mem_bytes;
      e.bytes_per_mirror = host_mem.bytes_per_mirror();
      collective_latency(hosts, coll, &e);
      bfs_e2e(g, hosts, coll, &e);
      char bspeed[16] = "-";
      char aspeed[16] = "-";
      if (e.coll == "tree") {
        std::snprintf(bspeed, sizeof(bspeed), "%.2fx",
                      flat_entry.barrier_us / std::max(e.barrier_us, 1e-9));
        std::snprintf(aspeed, sizeof(aspeed), "%.2fx",
                      flat_entry.allreduce_us /
                          std::max(e.allreduce_us, 1e-9));
      } else {
        flat_entry = e;
      }
      char barrier_buf[32], allred_buf[32], bfs_buf[32];
      std::snprintf(barrier_buf, sizeof(barrier_buf), "%.1f", e.barrier_us);
      std::snprintf(allred_buf, sizeof(allred_buf), "%.1f", e.allreduce_us);
      std::snprintf(bfs_buf, sizeof(bfs_buf), "%.3f", e.bfs_s);
      table.add_row({std::to_string(hosts), coll, barrier_buf, allred_buf,
                     bfs_buf, bspeed, aspeed});
      entries.push_back(e);
    }
  }
  table.print(std::cout);
  std::printf("\nshape to check: the allreduce gap is the headline (flat "
              "pays 3 full barrier rounds per op, tree pays one up+down "
              "wave) - expect ~2x at 16+ hosts. The bare tree barrier can "
              "trail flat on a near-serial box (flat's fetch_add chain has "
              "no contention to lose); apps only issue allreduces at round "
              "boundaries, so bfs(s) should still favor tree at 64+ hosts. "
              "bfs(s) narrows the collective gap - collectives are only the "
              "round boundaries of the app.\n");

  // ---- vertex-count sweep: compressed metadata footprint + e2e walls ----
  std::printf("\n=== Vertex-count scaling: compressed lid-map metadata "
              "(DESIGN.md \xc2\xa7" "17) ===\n");
  const int mem_hosts = std::min(128, max_hosts);
  const int e2e_hosts = std::min(8, max_hosts);
  std::printf("(rmat E/V~8, metadata partitioned at %d hosts; BFS + "
              "PageRank at %d hosts, ULT fibers, LCI backend; cap "
              "LCR_BENCH_VERTS=%llu)\n\n",
              mem_hosts, e2e_hosts,
              static_cast<unsigned long long>(max_verts));
  std::vector<VertexEntry> sweep;
  std::map<std::string, double> measured_mem;
  bench::Table vtable({"scale", "verts", "edges", "mem/host", "bytes/mirror",
                       "vs uncompressed", "bfs(s)", "pagerank(s)"});
  for (unsigned scale : {16u, 18u, 20u, 22u}) {
    if ((std::uint64_t{1} << scale) > max_verts) break;
    graph::GenOptions vopt;
    vopt.seed = 1234;
    const graph::Csr vg = graph::rmat(scale, 8.0, vopt);

    VertexEntry v;
    v.scale = scale;
    v.verts = vg.num_nodes();
    v.edges = vg.num_edges();
    v.mem_hosts = mem_hosts;
    v.e2e_hosts = e2e_hosts;
    v.mem = partition_mem(vg, mem_hosts);

    bench::RunSpec spec;
    spec.app = "bfs";
    spec.hosts = e2e_hosts;
    spec.threads = 1;
    spec.host_sched = "ult";
    spec.source = bench::choose_source(vg);
    v.bfs_s = bench::run_app(vg, spec).total_s;
    spec.app = "pagerank";
    spec.pagerank_iters = bench::env_pr_iters(5);
    v.pagerank_s = bench::run_app(vg, spec).total_s;

    const std::string key =
        "v" + std::to_string(scale) + "_h" + std::to_string(mem_hosts);
    measured_mem[key + "#bytes_per_mirror"] = v.mem.bytes_per_mirror();
    measured_mem[key + "#ratio"] = v.mem.ratio();

    char mem_buf[32], bpm_buf[32], ratio_buf[32], bfs_buf[32], pr_buf[32];
    std::snprintf(mem_buf, sizeof(mem_buf), "%.1fKiB",
                  static_cast<double>(v.mem.mem_bytes) / mem_hosts / 1024.0);
    std::snprintf(bpm_buf, sizeof(bpm_buf), "%.2f",
                  v.mem.bytes_per_mirror());
    std::snprintf(ratio_buf, sizeof(ratio_buf), "%.2fx", v.mem.ratio());
    std::snprintf(bfs_buf, sizeof(bfs_buf), "%.3f", v.bfs_s);
    std::snprintf(pr_buf, sizeof(pr_buf), "%.3f", v.pagerank_s);
    vtable.add_row({std::to_string(scale), std::to_string(v.verts),
                    std::to_string(v.edges), mem_buf, bpm_buf, ratio_buf,
                    bfs_buf, pr_buf});
    sweep.push_back(v);
  }
  vtable.print(std::cout);
  std::printf("\nshape to check: bytes/mirror stays flat (~2-4) as the "
              "graph grows and the ratio vs the seed vector/hash-map "
              "representation stays >= 4x; walls grow ~linearly in edges.\n");

  // Memory-baseline gate (same flat-JSON format as the fig6 perf guard):
  // keys are "v<scale>_h<hosts>#bytes_per_mirror" (regresses upward) and
  // "...#ratio" (regresses downward). Byte counts are deterministic, so the
  // headroom only covers representation drift, not machine noise.
  if (!mem_write.empty()) {
    if (!bench::write_flat_json(mem_write, measured_mem)) {
      std::fprintf(stderr, "failed to write %s\n", mem_write.c_str());
      return 1;
    }
    std::printf("memory baseline written to %s\n", mem_write.c_str());
  }
  if (!mem_baseline_path.empty()) {
    const auto baseline = bench::load_flat_json(mem_baseline_path);
    if (baseline.empty()) {
      std::fprintf(stderr, "no baseline entries in %s\n",
                   mem_baseline_path.c_str());
      return 1;
    }
    int regressions = 0;
    for (const auto& [key, value] : measured_mem) {
      const auto it = baseline.find(key);
      if (it == baseline.end()) continue;
      // bytes/mirror regresses upward, the compression ratio downward. The
      // counts are deterministic; 10% headroom only absorbs representation
      // drift (e.g. an extra anchor array), never machine noise.
      const bool lower_bound =
          key.size() > 6 && key.compare(key.size() - 6, 6, "#ratio") == 0;
      const double limit = lower_bound ? it->second * 0.90
                                       : it->second * 1.10 + 0.05;
      const bool bad = lower_bound ? value < limit : value > limit;
      std::printf("  [mem] %-32s %.3f vs baseline %.3f (limit %s%.3f) %s\n",
                  key.c_str(), value, it->second, lower_bound ? ">=" : "<=",
                  limit, bad ? "REGRESSED" : "ok");
      if (bad) ++regressions;
    }
    if (regressions > 0) {
      std::fprintf(stderr, "%d memory metric(s) regressed over %s\n",
                   regressions, mem_baseline_path.c_str());
      return 1;
    }
  }

  if (!json_path.empty()) write_json(json_path, entries, sweep);
  return 0;
}
