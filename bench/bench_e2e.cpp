// End-to-end matrix driver over bench::run_app: the paper's Fig. 3, 4, 5
// and Tables II-IV as presets, plus the committed trajectory.
//   bench_e2e --preset {fig3|fig4|fig5|table2|table4|trajectory}
//             [--json-out <file>]
// A cell is (graph, app, engine, backend, MPI personality, cluster profile,
// host scheduler, hosts). An untimed warm-up pass runs every cell; it
// absorbs lazy set-up, such as the slow first ULT run of a process. Then
// kRepeats timed passes alternate direction, so that drift over the
// process's life favours neither end of the list. Tables print medians.
#include <algorithm>
#include <array>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench_support/cluster_configs.hpp"
#include "bench_support/runner.hpp"
#include "bench_support/table.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"

using namespace lcr;
using comm::BackendKind;

namespace {

constexpr int kRepeats = 5;
constexpr std::array<const char*, 6> kCounters = {
    "rounds", "messages", "bytes", "fabric.sends", "fabric.puts",
    "fabric.bytes_tx"};
const char* const kApps[] = {"bfs", "cc", "sssp", "pagerank"};
const graph::GenOptions kWeighted{.make_weights = true};

struct Cell {
  std::string graph, profile;
  const graph::Csr* g;  // owned by the Matrix
  bench::RunSpec spec;
};

// One entry per timed repeat, in pass order.
struct Runs {
  std::vector<double> total, compute, comm;
  std::vector<std::uint64_t> mem_max, mem_min;  // per-host peak comm memory
  std::array<std::vector<std::uint64_t>, kCounters.size()> counters;
};

// The median and quartiles of kRepeats values are exact ranks.
static_assert((kRepeats - 1) % 4 == 0);
template <typename T>
double quantile(std::vector<T> v, double q) {
  std::sort(v.begin(), v.end());
  return static_cast<double>(v[static_cast<std::size_t>(q * (v.size() - 1))]);
}

template <typename T>
double med(const std::vector<T>& v) {
  return quantile(v, 0.5);
}

double iqr(const std::vector<double>& v) {
  return quantile(v, 0.75) - quantile(v, 0.25);
}

// A preset's cells, in the order its loops add them, and their runs.
struct Matrix {
  unsigned scale;
  std::uint32_t pr_iters;
  int hosts;  // the largest host count
  bench::ClusterProfile profile = bench::stampede2_like();  // for add()
  std::map<std::string, graph::Csr> graphs = {};  // and name + "/sym"
  std::vector<Cell> cells = {};
  std::vector<Runs> runs = {};

  void add_graph(const std::string& name, graph::Csr g) {
    graphs[name + "/sym"] = graph::symmetrize(g);
    graphs[name] = std::move(g);
  }

  bench::RunSpec& add(const std::string& graph, const char* app, int hosts) {
    // cc runs on the symmetrized graph, as in the paper's inputs.
    const graph::Csr& g =
        graphs.at(std::string(app) == "cc" ? graph + "/sym" : graph);
    bench::RunSpec spec;
    spec.app = app;
    spec.hosts = hosts;
    spec.threads = profile.compute_threads;
    spec.source = bench::choose_source(g);
    spec.pagerank_iters = pr_iters;
    spec.fabric = profile.fabric;
    cells.push_back({graph, profile.name, &g, std::move(spec)});
    return cells.back().spec;
  }

  void run() {
    const std::size_t n = cells.size();
    runs.assign(n, Runs{});
    for (int pass = -1; pass < kRepeats; ++pass) {  // pass -1: warm-up
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t i = pass % 2 == 1 ? n - 1 - k : k;
        const bench::RunResult r = bench::run_app(*cells[i].g, cells[i].spec);
        if (pass < 0) continue;
        Runs& out = runs[i];
        out.total.push_back(r.total_s);
        out.compute.push_back(r.compute_s);
        out.comm.push_back(r.comm_s);
        const auto [lo, hi] =
            std::minmax_element(r.peak_mem.begin(), r.peak_mem.end());
        out.mem_max.push_back(*hi);
        out.mem_min.push_back(*lo);
        const std::uint64_t counters[] = {
            r.rounds, r.messages, r.bytes, r.telemetry.at(kCounters[3]),
            r.telemetry.at(kCounters[4]), r.telemetry.at(kCounters[5])};
        for (std::size_t c = 0; c < kCounters.size(); ++c)
          out.counters[c].push_back(counters[c]);
      }
    }
  }

  double total(std::size_t i) const { return med(runs[i].total); }

  // Prints rows of `width` consecutive cells; `row(i, cells)` appends the
  // columns of the row that starts at cell i. Rows are labelled by hosts,
  // one table per (graph, app), if `by_hosts`; else by app, in one table.
  template <typename Row>
  void print(const std::vector<std::string>& headers, std::size_t width,
             bool by_hosts, Row row) const {
    bench::Table table(headers);
    for (std::size_t i = 0; i < cells.size(); i += width) {
      const bench::RunSpec& spec = cells[i].spec;
      std::vector<std::string> out{by_hosts ? std::to_string(spec.hosts)
                                            : spec.app};
      row(i, out);
      table.add_row(std::move(out));
      if (by_hosts && (i + width == cells.size() ||
                       cells[i + width].spec.app != spec.app)) {
        std::printf("--- %s / %s ---\n", cells[i].graph.c_str(),
                    spec.app.c_str());
        table.print(std::cout);
        std::printf("\n");
        table = bench::Table(headers);
      }
    }
    if (!by_hosts) table.print(std::cout);
  }
};

// Figure 3: Abelian exec time, LCI vs MPI-Probe vs MPI-RMA. Paper: LCI >=
// MPI-RMA >= MPI-Probe, geomean 1.34x over Probe, 1.08x over RMA.
void fig3(Matrix& m) {
  std::printf("=== Figure 3: Abelian exec time - LCI vs MPI-Probe vs "
              "MPI-RMA ===\n");
  std::printf("(graphs at scale %u, vertex-cut partition, stampede2-like "
              "fabric)\n\n", m.scale);
  for (const char* gname : {"rmat", "kron", "web"}) {
    m.add_graph(gname, graph::by_name(gname, m.scale, kWeighted));
    for (const char* app : kApps)
      for (int hosts = 2; hosts <= m.hosts; hosts *= 2)
        for (auto kind :
             {BackendKind::Lci, BackendKind::MpiProbe, BackendKind::MpiRma})
          m.add(gname, app, hosts).backend = kind;
  }
  m.run();
  std::vector<double> vs_probe, vs_rma;
  m.print({"hosts", "lci(s)", "mpi-probe(s)", "mpi-rma(s)", "lci vs probe",
           "lci vs rma"},
          3, true, [&](std::size_t i, std::vector<std::string>& row) {
            const double lci = m.total(i), probe = m.total(i + 1),
                         rma = m.total(i + 2);
            for (double t : {lci, probe, rma})
              row.push_back(bench::fmt_seconds(t));
            row.push_back(bench::fmt_ratio(probe / lci));
            row.push_back(bench::fmt_ratio(rma / lci));
            if (m.cells[i].spec.hosts != m.hosts) return;
            vs_probe.push_back(probe / lci);
            vs_rma.push_back(rma / lci);
          });
  std::printf("geomean LCI speedup at %d hosts: %.2fx over MPI-Probe "
              "(paper: 1.34x), %.2fx over MPI-RMA (paper: 1.08x)\n",
              m.hosts, bench::geomean(vs_probe), bench::geomean(vs_rma));
}

// Figure 4: Gemini exec time, LCI vs MPI (THREAD_MULTIPLE). Paper: geomean
// comm speedup ~2x, exec ~1.64x.
void fig4(Matrix& m) {
  std::printf("=== Figure 4: Gemini exec time - LCI vs MPI-Probe "
              "(THREAD_MULTIPLE) ===\n");
  std::printf("(graphs at scale %u, blocked edge-cut, stampede2-like "
              "fabric)\n\n", m.scale);
  for (const char* gname : {"kron", "rmat"}) {
    m.add_graph(gname, graph::by_name(gname, m.scale, kWeighted));
    for (const char* app : kApps)
      for (int hosts = 2; hosts <= m.hosts; hosts *= 2)
        for (auto kind : {BackendKind::Lci, BackendKind::MpiProbe}) {
          bench::RunSpec& spec = m.add(gname, app, hosts);
          spec.engine = "gemini";
          spec.backend = kind;
          // The paper's Gemini sends one signal per frontier out-edge (dense
          // aggregation is this repo's extension; see bench_ablation), and
          // small batches give the many-small-messages regime of its scale.
          spec.gemini_dense_threshold = 2.0;
          spec.gemini_batch_bytes = 1024;
        }
  }
  m.run();
  std::vector<double> exec_speedups, comm_speedups;
  m.print({"hosts", "lci(s)", "mpi(s)", "lci-comm(s)", "mpi-comm(s)",
           "exec speedup", "comm speedup"},
          2, true, [&](std::size_t i, std::vector<std::string>& row) {
            const double lci_comm = med(m.runs[i].comm),
                         mpi_comm = med(m.runs[i + 1].comm);
            const double exec = m.total(i + 1) / m.total(i);
            const double comm = mpi_comm / std::max(lci_comm, 1e-9);
            for (double t : {m.total(i), m.total(i + 1), lci_comm, mpi_comm})
              row.push_back(bench::fmt_seconds(t));
            row.push_back(bench::fmt_ratio(exec));
            row.push_back(bench::fmt_ratio(comm));
            if (m.cells[i].spec.hosts != m.hosts) return;
            exec_speedups.push_back(exec);
            comm_speedups.push_back(comm);
          });
  std::printf("geomean at %d hosts: comm speedup %.2fx (paper: 2x), exec "
              "speedup %.2fx (paper: 1.64x)\n",
              m.hosts, bench::geomean(comm_speedups),
              bench::geomean(exec_speedups));
}

// Figure 5: comm-buffer memory, max and min across hosts, LCI vs MPI-RMA.
// Paper: RMA's worst-case windows need up to 10x LCI's memory, max ~ min.
void fig5(Matrix& m) {
  std::printf("=== Figure 5: comm-buffer memory footprint, LCI vs MPI-RMA "
              "===\n");
  std::printf("(peak working set of communication buffers per host; %d "
              "hosts, scale %u)\n\n", m.hosts, m.scale);
  m.add_graph("kron", graph::kron(m.scale, 16.0, kWeighted));
  for (const char* app : kApps)
    for (auto kind : {BackendKind::Lci, BackendKind::MpiRma})
      m.add("kron", app, m.hosts).backend = kind;
  m.run();
  m.print({"app", "lci max", "lci min", "rma max", "rma min", "rma/lci (max)"},
          2, false, [&](std::size_t i, std::vector<std::string>& row) {
            const Runs &lci = m.runs[i], &rma = m.runs[i + 1];
            for (const auto* v :
                 {&lci.mem_max, &lci.mem_min, &rma.mem_max, &rma.mem_min})
              row.push_back(
                  bench::fmt_bytes(static_cast<std::uint64_t>(med(*v))));
            row.push_back(bench::fmt_ratio(med(rma.mem_max) /
                                           std::max(med(lci.mem_max), 1.0)));
          });
  std::printf("\nshape to check: rma max >> lci max (worst-case "
              "preallocation); rma max ~ rma min (static windows).\n");
}

// Table II (+ Table III): Abelian exec time on rmat, LCI vs MPI-Probe, on
// both cluster profiles. Paper: LCI <= MPI-Probe on both (Section IV-B3).
void table2(Matrix& m) {
  std::printf("=== Table III: cluster configurations ===\n");
  for (const auto& profile : bench::all_profiles())
    std::printf("  %s\n", bench::format_profile(profile).c_str());
  m.add_graph("rmat", graph::rmat(m.scale, 16.0, kWeighted));
  for (const char* app : {"bfs", "cc", "pagerank", "sssp"})
    for (const auto& profile : bench::all_profiles()) {
      m.profile = profile;
      for (auto kind : {BackendKind::Lci, BackendKind::MpiProbe})
        m.add("rmat", app, m.hosts).backend = kind;
    }
  m.run();
  std::printf("\n=== Table II: Abelian exec time (s), rmat at %d hosts "
              "===\n\n", m.hosts);
  m.print({"app", "s2-like LCI", "s2-like MPI-Probe", "s1-like LCI",
           "s1-like MPI-Probe"},
          4, false, [&](std::size_t i, std::vector<std::string>& row) {
            for (std::size_t k = i; k < i + 4; ++k)
              row.push_back(bench::fmt_seconds(m.total(k)));
          });
  std::printf("\nshape to check: LCI <= MPI-Probe in each cluster column "
              "pair.\n");
}

// Table IV: LCI vs the IntelMPI, MVAPICH and OpenMPI personalities as Probe
// and RMA. Paper: LCI wins; no clear winner among the MPIs.
void table4(Matrix& m) {
  std::printf("=== Table IV: LCI vs MPI implementation personalities, rmat "
              "at %d hosts ===\n", m.hosts);
  std::printf("(vendor MPIs are modelled as calibrated cost personalities "
              "over the same faithful MPI semantics; see DESIGN.md)\n\n");
  m.add_graph("rmat", graph::rmat(m.scale, 16.0, kWeighted));
  for (const char* app : kApps) {
    m.add("rmat", app, m.hosts);  // LCI
    for (const char* personality : {"intelmpi", "mvapich", "openmpi"})
      for (auto kind : {BackendKind::MpiProbe, BackendKind::MpiRma}) {
        bench::RunSpec& spec = m.add("rmat", app, m.hosts);
        spec.backend = kind;
        spec.mpi_personality = personality;
      }
  }
  m.run();
  const std::vector<std::string> headers = {
      "app",           "lci",         "intelmpi-probe", "intelmpi-rma",
      "mvapich-probe", "mvapich-rma", "openmpi-probe",  "openmpi-rma"};
  std::map<std::string, int> wins;
  m.print(headers, 7, false, [&](std::size_t i, std::vector<std::string>& row) {
    std::size_t best = 0;
    for (std::size_t k = 0; k < 7; ++k) {
      row.push_back(bench::fmt_seconds(m.total(i + k)));
      if (m.total(i + k) < m.total(i + best)) best = k;
    }
    ++wins[headers[best + 1]];
  });
  std::printf("\nper-app winners: ");
  for (const auto& [label, count] : wins)
    std::printf("%s x%d  ", label.c_str(), count);
  std::printf("\nshape to check: lci wins every app; the MPI columns "
              "shuffle among themselves.\n");
}

// Trajectory: the committed end-to-end record (bench/BENCH_*.json, whose
// counters CI checks exactly). One compute thread per host: at two, the
// race between a host's threads moves messages and bytes between repeats
// (DESIGN.md §3).
void trajectory(Matrix& m) {
  std::printf("=== Trajectory: kron scale %u, 1 compute thread/host, "
              "stampede2-like fabric, %d repeats per cell ===\n\n",
              m.scale, kRepeats);
  m.profile.compute_threads = 1;
  m.add_graph("kron", graph::by_name("kron", m.scale, kWeighted));
  const std::pair<const char*, BackendKind> runtimes[] = {
      {"abelian", BackendKind::Lci},    {"abelian", BackendKind::MpiProbe},
      {"abelian", BackendKind::MpiRma}, {"gemini", BackendKind::Lci},
      {"gemini", BackendKind::MpiProbe}};
  for (const char* app : kApps)
    for (const auto& [engine, kind] : runtimes)
      for (const char* sched : {"os", "ult"})
        for (int hosts : {4, 16}) {
          if (hosts > m.hosts) continue;
          bench::RunSpec& spec = m.add("kron", app, hosts);
          spec.engine = engine;
          spec.backend = kind;
          spec.host_sched = sched;
        }
  m.run();
  for (std::size_t i = 0; i < m.cells.size(); ++i) {
    const bench::RunSpec& spec = m.cells[i].spec;
    const Runs& r = m.runs[i];
    std::printf("%-8s %-7s %-9s %-3s %2d hosts  total %.4f s (iqr %.4f)  "
                "compute %.4f  comm %.4f  messages %.0f  bytes %.0f\n",
                spec.app.c_str(), spec.engine.c_str(),
                comm::to_string(spec.backend), spec.host_sched.c_str(),
                spec.hosts, med(r.total), iqr(r.total), med(r.compute),
                med(r.comm), med(r.counters[1]), med(r.counters[2]));
  }
}

void write_stat(std::FILE* f, const char* name, const std::vector<double>& v) {
  std::fprintf(f, ",\n     \"%s\": {\"median\": %.9f, \"iqr\": %.9f, "
               "\"runs\": [", name, med(v), iqr(v));
  for (std::size_t i = 0; i < v.size(); ++i)
    std::fprintf(f, "%s%.9f", i ? ", " : "", v[i]);
  std::fprintf(f, "]}");
}

// Per cell: its key; median, IQR and runs of each timing; medians of the
// per-host peak-memory max and min and of each counter; drifted counters.
void write_json(const std::string& path, const std::string& preset,
                const Matrix& m) {
  std::FILE* f = bench::open_json(path);
  std::fprintf(f, "{\n  \"bench\": \"e2e\",\n  \"preset\": \"%s\",\n"
               "  \"scale\": %u,\n  \"pagerank_iters\": %u,\n"
               "  \"repeats\": %d,\n  \"cells\": [\n",
               preset.c_str(), m.scale, m.pr_iters, kRepeats);
  for (std::size_t i = 0; i < m.cells.size(); ++i) {
    const bench::RunSpec& spec = m.cells[i].spec;
    const Runs& r = m.runs[i];
    std::fprintf(f,
                 "    {\"graph\": \"%s\", \"app\": \"%s\", \"engine\": "
                 "\"%s\", \"backend\": \"%s\", \"personality\": \"%s\", "
                 "\"profile\": \"%s\", \"host_sched\": \"%s\", \"hosts\": "
                 "%d, \"threads\": %zu, \"repeats\": %zu",
                 m.cells[i].graph.c_str(), spec.app.c_str(),
                 spec.engine.c_str(), comm::to_string(spec.backend),
                 spec.mpi_personality.c_str(), m.cells[i].profile.c_str(),
                 spec.host_sched.c_str(), spec.hosts, spec.threads,
                 r.total.size());
    write_stat(f, "total_s", r.total);
    write_stat(f, "compute_s", r.compute);
    write_stat(f, "comm_s", r.comm);
    std::fprintf(f, ",\n     \"peak_mem\": {\"max\": %.0f, \"min\": %.0f},"
                 "\n     \"counters\": {", med(r.mem_max), med(r.mem_min));
    std::string drift;  // counters whose repeats differ
    for (std::size_t k = 0; k < kCounters.size(); ++k) {
      std::fprintf(f, "%s\"%s\": %.0f", k ? ", " : "", kCounters[k],
                   med(r.counters[k]));
      if (quantile(r.counters[k], 0.0) != quantile(r.counters[k], 1.0))
        drift += (drift.empty() ? "\"" : ", \"") + std::string(kCounters[k]) +
                 '"';
    }
    std::fprintf(f, "},\n     \"drifted\": [%s]}%s\n", drift.c_str(),
                 i + 1 < m.cells.size() ? "," : "");
  }
  bench::close_json(f, path);
}

}  // namespace

int main(int argc, char** argv) {
  struct Preset {
    void (*run)(Matrix&);
    unsigned scale;          // default LCR_BENCH_SCALE
    std::uint32_t pr_iters;  // default LCR_BENCH_PR_ITERS
    int hosts;               // default LCR_BENCH_HOSTS, the largest host count
  };
  // fig4 defaults to scale 11: at smaller scales the per-round traffic is
  // too small for the runtimes to differ above scheduler noise.
  const std::map<std::string, Preset> presets = {
      {"fig3", {fig3, 10, 8, 8}},     {"fig4", {fig4, 11, 6, 8}},
      {"fig5", {fig5, 10, 6, 8}},     {"table2", {table2, 10, 8, 8}},
      {"table4", {table4, 10, 8, 8}}, {"trajectory", {trajectory, 15, 8, 16}}};
  const std::string preset = bench::arg_value(argc, argv, "--preset");
  const std::string json_path = bench::json_out(argc, argv);
  const auto it = presets.find(preset);
  if (it == presets.end()) {
    std::fprintf(stderr, "usage: %s --preset {fig3|fig4|fig5|table2|table4|"
                 "trajectory} [--json-out <file>]\n", argv[0]);
    return 2;
  }
  const Preset& p = it->second;
  Matrix m{bench::env_scale(p.scale), bench::env_pr_iters(p.pr_iters),
           bench::env_hosts(p.hosts)};
  p.run(m);
  if (!json_path.empty()) write_json(json_path, preset, m);
  return 0;
}
