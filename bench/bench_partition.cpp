// Partitioner layer bench: median wall time of one graph::partition call per
// policy, on the benchmark's substrate (kron16, E/V 16, weighted, 4 hosts)
// and on a many-host case (kron12, 64 hosts). The timed calls should see a
// warm process, as a long-running caller (perfbench's set-up probes, a query
// loop) does. So each cell makes one untimed call first, and before the
// first cell untimed calls fill kWarmupS of wall time: on an idle VM the
// first second or so of multi-threaded work in a fresh process can run
// several times slower, however many calls it spans (DESIGN.md §17).
//
// Every query of perfbench repartitions inside run_app, so this is the layer
// behind its end-to-end `setup_s`. The partition's output is pinned by the
// golden digests in tests/test_partition.cpp; this bench only times it.
//
// LCR_BENCH_SCALE sets the large case's scale (default 16); the many-host
// case runs four scales below it.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench_support/table.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"

using namespace lcr;

namespace {

constexpr int kReps = 9;
constexpr double kWarmupS = 1.5;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double median_partition_s(const graph::Csr& g, int hosts,
                          graph::PartitionPolicy policy) {
  if (graph::partition(g, hosts, policy).size() !=
      static_cast<std::size_t>(hosts))
    std::abort();
  std::vector<double> wall;
  for (int i = 0; i < kReps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto parts = graph::partition(g, hosts, policy);
    wall.push_back(seconds_since(t0));
    if (parts.size() != static_cast<std::size_t>(hosts)) std::abort();
  }
  std::sort(wall.begin(), wall.end());
  return wall[wall.size() / 2];
}

}  // namespace

int main() {
  const unsigned scale = bench::env_scale(16);
  const unsigned small = scale > 4 ? scale - 4 : 1;
  struct Case {
    unsigned scale;
    int hosts;
  };
  const Case cases[] = {{scale, 4}, {small, 64}};
  const graph::PartitionPolicy policies[] = {
      graph::PartitionPolicy::BlockedEdgeCut,
      graph::PartitionPolicy::OutgoingEdgeCut,
      graph::PartitionPolicy::IncomingEdgeCut,
      graph::PartitionPolicy::CartesianVertexCut};

  std::printf(
      "=== graph::partition wall time (median of %d calls after 1 untimed, "
      "and %.1f s of untimed calls first; W = min(hosts, %u cores) "
      "workers) ===\n\n",
      kReps, kWarmupS, std::max(1u, std::thread::hardware_concurrency()));
  bench::Table table({"graph", "|E|", "hosts", "policy", "partition ms"});
  for (const Case& c : cases) {
    const graph::Csr g =
        graph::kron(c.scale, 16.0, graph::GenOptions{.make_weights = true});
    if (&c == cases) {
      const auto t0 = std::chrono::steady_clock::now();
      while (seconds_since(t0) < kWarmupS)
        graph::partition(g, c.hosts, policies[0]);
    }
    for (const graph::PartitionPolicy policy : policies) {
      char ms[32];
      std::snprintf(ms, sizeof ms, "%.2f",
                    1e3 * median_partition_s(g, c.hosts, policy));
      table.add_row({"kron" + std::to_string(c.scale),
                     std::to_string(g.num_edges()), std::to_string(c.hosts),
                     graph::to_string(policy), ms});
    }
  }
  table.print(std::cout);
  return 0;
}
