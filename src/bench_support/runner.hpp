// End-to-end experiment runner: graph -> partition -> cluster -> app.
//
// One call runs one (app x engine x backend x policy x hosts) configuration
// on a simulated cluster and returns validated labels plus the timing and
// memory measurements the paper's tables and figures report.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "comm/backend.hpp"
#include "comm/membership.hpp"
#include "fabric/config.hpp"
#include "graph/csr.hpp"
#include "graph/dist_graph.hpp"
#include "telemetry/health.hpp"

namespace lcr::bench {

struct RunSpec {
  std::string app = "bfs";  // bfs | cc | sssp | pagerank | labelprop | ...
  std::string engine = "abelian"; // abelian | gemini
  comm::BackendKind backend = comm::BackendKind::Lci;
  graph::PartitionPolicy policy = graph::PartitionPolicy::CartesianVertexCut;
  int hosts = 4;
  std::size_t threads = 2;
  /// Abelian receive-side apply workers (0 = all compute threads; see
  /// abelian::EngineConfig::apply_workers).
  std::size_t apply_workers = 0;
  /// Abelian apply-slice granularity (records); 0 = engine default. Tests
  /// shrink it so small graphs still exercise sliced parallel applies.
  std::uint32_t apply_slice_records = 0;
  graph::VertexId source = 0;
  std::uint32_t pagerank_iters = 20;
  std::uint32_t kcore_k = 4;  // for app == "kcore" (abelian engine only)
  /// Gemini sparse/dense switch: a round goes dense when its frontier's
  /// local out-edges exceed this fraction of the host's local edges (see
  /// gemini::GeminiConfig::dense_threshold). The Fig-4 bench forces sparse
  /// (> 1.0) to reproduce the paper's per-edge signal regime; the dense
  /// aggregation is this repo's extension.
  double gemini_dense_threshold = 0.05;
  /// Gemini record-batch bytes per (thread, destination).
  std::size_t gemini_batch_bytes = 8 * 1024;
  double pagerank_tol = 0.0;  // 0: fixed iteration count (fair comparisons)
  std::string mpi_personality = "default";
  /// MPI-Probe buffered-layer flush timeout (ablation C).
  std::uint64_t aggregation_timeout_us = 50;
  /// One-sided direct-write sync path (DESIGN.md §15); applies to both
  /// engines. Env LCR_DIRECT_WRITE=off|auto|forced overrides.
  comm::DirectWriteMode direct_write = comm::DirectWriteMode::Auto;
  /// Asynchronous checkpoint interval in rounds (0 = checkpointing off).
  /// With a kill schedule in `fabric.fault`, hosts that unwind on a failure
  /// rendezvous at the cluster recovery barrier, reload the last stable
  /// checkpoint and resume (DESIGN.md §13).
  std::int64_t ckpt_interval = 0;
  /// Simulated-host scheduler (DESIGN.md §16): "" = env LCR_HOST_SCHED /
  /// OS threads; "os" forces one OS thread per host; "ult" multiplexes
  /// hosts as cooperative fibers over min(hardware threads, hosts) workers
  /// (required past ~16 hosts on ordinary machines).
  std::string host_sched;
  /// OOB control-plane collectives: "" = env LCR_OOB_COLL / tree; "tree" is
  /// the k-ary combining tree (O(log N) waves); "flat" keeps the original
  /// centralized barrier + 3-barrier scratch allreduce for comparison.
  std::string oob_coll;
  /// ULT worker pool size; 0 = min(hardware threads, hosts).
  std::size_t ult_workers = 0;
  /// When nonempty (or env LCR_HEALTH_OUT is set), the runner writes the
  /// cluster health monitor's round-indexed timeline and classifier
  /// findings as health.json to this path after the run (DESIGN.md §14).
  std::string health_out;
  fabric::FabricConfig fabric = fabric::test_config();
};

struct RunResult {
  double total_s = 0.0;    // max across hosts
  double compute_s = 0.0;  // max across hosts
  double comm_s = 0.0;     // max across hosts (non-overlapped communication)
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;  // summed across hosts
  std::uint64_t bytes = 0;
  /// Peak communication-buffer working set per host (Fig 5).
  std::vector<std::uint64_t> peak_mem;
  /// Full snapshot of the cluster fabric's telemetry registry, taken while
  /// every host engine was still alive (so it includes the per-layer probes:
  /// lci.*, mpilite.*, abelian.*, gemini.*, plus "<name>.count"/"<name>.sum"
  /// per histogram). Same-name probes are summed across endpoints and hosts,
  /// e.g. "fabric.sends", "fault.dropped", "rel.retransmits".
  std::map<std::string, std::uint64_t> telemetry;
  /// Fail-stop recovery observables (all zero / empty on an unfailed run).
  std::uint64_t kills = 0;       // fail-stop kills injected during the run
  std::uint64_t recoveries = 0;  // completed cluster recovery rendezvous
  std::int64_t rollback_round = -1;   // last recovery's rollback round
  std::uint64_t killed_at_op = 0;     // victim's data-op count at the kill
  /// Max across hosts: wall seconds from unwinding on the failure until the
  /// host's rebuilt engine was ready to resume (rollback + re-admission).
  double recovery_s = 0.0;
  /// Deterministic recovery trace (Kill / Rollback / Readmit order).
  std::vector<comm::RecoveryEvent> recovery_events;
  /// Cluster health report: per-phase timeline plus classifier findings
  /// (straggler / retransmit_storm / apply_backlog / checkpoint_interference;
  /// DESIGN.md §14). Empty timeline when no engine reported phases.
  telemetry::HealthReport health;
  /// Global result labels assembled from the masters.
  std::vector<std::uint32_t> labels_u32;  // bfs / cc / sssp
  std::vector<double> labels_f64;         // pagerank
};

/// Runs `spec` on `g`. For cc the caller should pass a symmetrized graph.
/// The gemini engine forces BlockedEdgeCut and runs on Lci or MpiProbe
/// (the latter as Gemini's THREAD_MULTIPLE MPI). Throws
/// std::invalid_argument for an unknown app or mpi_personality, for gemini
/// on MpiRma, and for gemini with an Abelian-only app (kcore, sssp_delta).
RunResult run_app(const graph::Csr& g, const RunSpec& spec);

/// Picks a well-connected source (max out-degree vertex).
graph::VertexId choose_source(const graph::Csr& g);

}  // namespace lcr::bench
