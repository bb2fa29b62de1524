// Chaos diagnosis: the DESIGN.md §14 observability artifacts, end to end.
//
// Runs a seeded lossy-fabric BFS (20% drop, one injected straggler host)
// with causal-trace sampling on, then writes the full diagnosis bundle to
// --out-dir (default ./diagnosis):
//
//   trace.json   Chrome trace with per-hop flow arrows (Perfetto-loadable)
//   flows.json   stitched per-message causal timelines
//   health.json  per-phase cluster timeline + classifier findings
//   flight_*.json  anomaly flight-recorder dump (ring breadcrumbs)
//
// Exit status is the diagnosis contract CI gates on: nonzero when the
// result labels are wrong, when no sampled message's stitched flow shows
// the post -> drop -> retransmit -> deliver -> apply recovery path, or
// when the health report fails to flag the injected loss episode
// (retransmit_storm) and straggler host.
//
// Build & run:   ./build/examples/chaos_diagnosis --out-dir diagnosis
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "apps/reference.hpp"
#include "bench_support/runner.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "telemetry/telemetry.hpp"

int main(int argc, char** argv) {
  using namespace lcr;

  std::string out_dir = "diagnosis";
  for (int i = 1; i + 1 < argc; ++i)
    if (std::string(argv[i]) == "--out-dir") out_dir = argv[i + 1];
  std::filesystem::create_directories(out_dir);

  telemetry::set_enabled(true);
  telemetry::set_trace_sampling(/*every=*/1, /*seed=*/0x5EED);
  telemetry::flight_set_dir(out_dir);

  // Same seeded scenario the acceptance test pins (test_observability):
  // every backend sees the fault roll eat payload-bearing chunks, and the
  // 8ms round tax on host 2 dominates the loss-induced retransmit RTOs.
  graph::Csr g = graph::rmat(9, 8.0);
  bench::RunSpec spec;
  spec.app = "bfs";
  spec.backend = comm::BackendKind::Lci;
  spec.hosts = 3;
  spec.policy = graph::PartitionPolicy::CartesianVertexCut;
  spec.source = bench::choose_source(g);
  spec.fabric = fabric::test_config();
  spec.fabric.fault.seed = 0xC0FFEE;
  spec.fabric.fault.drop_rate = 0.20;
  spec.fabric.fault.slow_host = 2;
  spec.fabric.fault.slow_round_ns = 8000000;
  spec.health_out = out_dir + "/health.json";

  const auto result = bench::run_app(g, spec);

  int rc = 0;
  if (result.labels_u32 != apps::reference_bfs(g, spec.source)) {
    std::fprintf(stderr, "FAIL: BFS labels diverge from the reference\n");
    rc = 1;
  }

  // Stitched causal flows: at least one sampled message must show the
  // whole lost-and-recovered life across hosts.
  const auto flows = telemetry::stitch_flows();
  std::size_t full_path = 0;
  for (const auto& flow : flows)
    if (telemetry::flow_has_path(
            flow, {"post", "drop", "retransmit", "deliver", "apply"}))
      ++full_path;
  if (full_path == 0) {
    std::fprintf(stderr,
                 "FAIL: no flow shows post->drop->retransmit->deliver->apply "
                 "(%zu flows stitched)\n",
                 flows.size());
    rc = 1;
  }

  // Health report: the classifiers must name the injected loss episode and
  // the slow host.
  bool storm = false;
  bool straggler = false;
  for (const auto& f : result.health.findings) {
    if (f.kind == "retransmit_storm") storm = true;
    if (f.kind == "straggler" && f.host == 2) straggler = true;
  }
  if (!storm) {
    std::fprintf(stderr,
                 "FAIL: health report missed the injected loss episode\n");
    rc = 1;
  }
  if (!straggler) {
    std::fprintf(stderr, "FAIL: health report missed straggler host 2\n");
    rc = 1;
  }

  telemetry::write_chrome_trace(out_dir + "/trace.json");
  telemetry::write_flow_trace(out_dir + "/flows.json");
  // Snapshot the breadcrumb ring into the bundle. Kill/revive-triggered
  // dumps (failure_pending, rollback) are pinned by test_observability;
  // this loss-only run dumps the watchdog/protocol breadcrumbs it left.
  telemetry::flight_dump("post_run");

  std::printf(
      "diagnosis bundle in %s/: %zu flows (%zu full recovery paths), "
      "%zu health findings, retransmits=%llu\n",
      out_dir.c_str(), flows.size(), full_path, result.health.findings.size(),
      static_cast<unsigned long long>(result.telemetry.at("rel.retransmits")));
  for (const auto& f : result.health.findings)
    std::printf("  finding: %s host=%d phases=[%u,%u] severity=%.2f %s\n",
                f.kind.c_str(), f.host, f.phase_lo, f.phase_hi, f.severity,
                f.detail.c_str());
  return rc;
}
