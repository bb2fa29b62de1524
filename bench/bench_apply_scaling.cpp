// Receive-side apply thread scaling (DESIGN.md §12): how much of the sync
// phase's wall time shrinks as decode/scatter work spreads from one apply
// worker across the whole compute team.
//
// Sweeps apply_workers in {1, 2, 4} at a fixed compute-thread count for
// bfs / cc / sssp on all three backends and reports:
//   * comm(s)    - non-overlapped communication wall time (max across hosts)
//   * apply(s)   - cluster-wide decode/scatter thread time (sync.apply_ns)
//   * comm x     - comm(s) speedup of this row vs the workers=1 row
//
// apply(s) is *thread time*, so it stays roughly constant across worker
// counts (same records decoded); the wall-clock win shows in comm(s). With
// fewer physical cores than apply workers the wall win disappears - the
// header prints std::thread::hardware_concurrency() so result tables are
// interpretable (see EXPERIMENTS.md).
//
// `--json-out <file>` (or env LCR_BENCH_JSON) writes the measurements as a
// JSON artifact for CI history.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench_support/cluster_configs.hpp"
#include "bench_support/runner.hpp"
#include "bench_support/table.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"

using namespace lcr;

namespace {

struct Entry {
  std::string app;
  std::string backend;
  std::size_t workers = 0;
  double comm_s = 0.0;
  double apply_s = 0.0;
  double total_s = 0.0;
  double comm_speedup = 1.0;  // vs the workers=1 row of the same cell
};

void write_json(const std::string& path, const std::vector<Entry>& all) {
  std::FILE* f = bench::open_json(path);
  std::fprintf(f, "{\n  \"bench\": \"apply_scaling\",\n  \"entries\": [\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Entry& e = all[i];
    std::fprintf(f,
                 "    {\"app\": \"%s\", \"backend\": \"%s\", "
                 "\"apply_workers\": %zu, \"comm_s\": %.6f, "
                 "\"apply_s\": %.6f, \"total_s\": %.6f, "
                 "\"comm_speedup\": %.4f}%s\n",
                 e.app.c_str(), e.backend.c_str(), e.workers, e.comm_s,
                 e.apply_s, e.total_s, e.comm_speedup,
                 i + 1 < all.size() ? "," : "");
  }
  bench::close_json(f, path);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::json_out(argc, argv);
  std::vector<Entry> entries;
  const unsigned scale = bench::env_scale(12);
  const int hosts = bench::env_hosts(4);
  const std::string app_filter = bench::env_app();

  const bench::ClusterProfile profile = bench::stampede2_like();
  const std::size_t threads = 4;

  std::printf("=== Apply-pipeline thread scaling: kron scale %u, %d hosts, "
              "%zu compute threads ===\n",
              scale, hosts, threads);
  std::printf("machine: %u hardware threads (wall-clock apply speedups need "
              "cores >= apply workers)\n\n",
              std::thread::hardware_concurrency());

  graph::GenOptions opt;
  opt.make_weights = true;
  graph::Csr base = graph::kron(scale, 16.0, opt);
  graph::Csr sym = graph::symmetrize(base);

  bench::Table table({"app", "backend", "apply thr", "comm(s)", "apply(s)",
                      "total(s)", "comm x"});
  for (const char* app : {"bfs", "cc", "sssp"}) {
    if (!app_filter.empty() && app_filter != app) continue;
    const graph::Csr& g = std::string(app) == "cc" ? sym : base;
    for (auto kind : {comm::BackendKind::Lci, comm::BackendKind::MpiProbe,
                      comm::BackendKind::MpiRma}) {
      double comm_base = 0.0;
      for (std::size_t workers : {1u, 2u, 4u}) {
        bench::RunSpec spec;
        spec.app = app;
        spec.backend = kind;
        spec.hosts = hosts;
        spec.threads = threads;
        spec.apply_workers = workers;
        spec.source = bench::choose_source(g);
        spec.fabric = profile.fabric;
        const bench::RunResult r = bench::run_app(g, spec);

        const auto apply_it = r.telemetry.find("sync.apply_ns");
        const double apply_s =
            apply_it != r.telemetry.end()
                ? static_cast<double>(apply_it->second) * 1e-9
                : 0.0;
        if (workers == 1) comm_base = r.comm_s;
        char speedup[16];
        std::snprintf(speedup, sizeof(speedup), "%.2fx",
                      comm_base / std::max(r.comm_s, 1e-9));
        table.add_row({app, comm::to_string(kind), std::to_string(workers),
                       bench::fmt_seconds(r.comm_s),
                       bench::fmt_seconds(apply_s),
                       bench::fmt_seconds(r.total_s), speedup});
        Entry e;
        e.app = app;
        e.backend = comm::to_string(kind);
        e.workers = workers;
        e.comm_s = r.comm_s;
        e.apply_s = apply_s;
        e.total_s = r.total_s;
        e.comm_speedup = comm_base / std::max(r.comm_s, 1e-9);
        entries.push_back(e);
      }
    }
  }
  table.print(std::cout);
  std::printf("\nshape to check: comm(s) drops as apply workers grow (given "
              "enough cores); apply(s) thread time stays roughly flat.\n");
  if (!json_path.empty()) write_json(json_path, entries);
  return 0;
}
