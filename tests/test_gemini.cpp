// End-to-end correctness of the Gemini engine on both of its backends: LCI
// and the THREAD_MULTIPLE MPI backend.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "abelian/cluster.hpp"
#include "apps/bfs.hpp"
#include "apps/cc.hpp"
#include "apps/reference.hpp"
#include "apps/sssp.hpp"
#include "bench_support/runner.hpp"
#include "gemini/dense_combine.hpp"
#include "gemini/engine.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "runtime/rng.hpp"

namespace lcr {
namespace {

/// One end-to-end run checked against the sequential reference. The
/// scale-12 cases sweep thread counts and both signal modes on graphs large
/// enough that each host's masters span several combine chunks, so extra
/// compute threads really fold private slot arrays into the shared one.
struct GeminiCase {
  const char* app;
  comm::BackendKind backend;  // Lci or MpiProbe (THREAD_MULTIPLE MPI)
  int hosts;
  int scale = 7;
  std::size_t threads = 2;
  double threshold = 0.05;  // gemini_dense_threshold: 2.0 sparse, 0.0 dense
};

std::string case_name(const ::testing::TestParamInfo<GeminiCase>& info) {
  const GeminiCase& c = info.param;
  std::ostringstream os;
  os << c.app << "_" << (c.backend == comm::BackendKind::Lci ? "lci" : "mpi")
     << "_h" << c.hosts;
  if (c.scale != 7)
    os << "_s" << c.scale << "_t" << c.threads << "_"
       << (c.threshold > 1.0    ? "sparse"
           : c.threshold == 0.0 ? "dense"
                                : "adaptive");
  return os.str();
}

class GeminiApps : public ::testing::TestWithParam<GeminiCase> {};

TEST_P(GeminiApps, MatchesSequentialReference) {
  const GeminiCase& c = GetParam();
  graph::GenOptions opt;
  opt.seed = 777;
  opt.make_weights = true;
  opt.max_weight = 8;
  graph::Csr g = graph::rmat(c.scale, 8.0, opt);
  const bool is_cc = std::string(c.app) == "cc";
  if (is_cc) g = graph::symmetrize(g);

  bench::RunSpec spec;
  spec.app = c.app;
  spec.engine = "gemini";
  spec.backend = c.backend;
  spec.hosts = c.hosts;
  spec.threads = c.threads;
  spec.gemini_dense_threshold = c.threshold;
  spec.source = bench::choose_source(g);
  spec.pagerank_iters = 8;

  const bench::RunResult result = bench::run_app(g, spec);

  if (std::string(c.app) == "bfs") {
    EXPECT_EQ(result.labels_u32, apps::reference_bfs(g, spec.source));
  } else if (std::string(c.app) == "sssp") {
    EXPECT_EQ(result.labels_u32, apps::reference_sssp(g, spec.source));
  } else if (is_cc) {
    EXPECT_EQ(result.labels_u32, apps::reference_cc(g));
  } else {
    const auto expected = apps::reference_pagerank(g, 0.85, 8, 0.0);
    for (std::size_t v = 0; v < expected.size(); ++v)
      EXPECT_NEAR(result.labels_f64[v], expected[v], 1e-9) << "vertex " << v;
  }
}

std::vector<GeminiCase> make_cases() {
  std::vector<GeminiCase> cases;
  for (const char* app : {"bfs", "cc", "sssp", "pagerank"}) {
    cases.push_back({app, comm::BackendKind::Lci, 4});
    cases.push_back({app, comm::BackendKind::MpiProbe, 4});
  }
  cases.push_back({"bfs", comm::BackendKind::Lci, 1});
  cases.push_back({"bfs", comm::BackendKind::Lci, 2});
  cases.push_back({"pagerank", comm::BackendKind::MpiProbe, 2});
  for (const char* app : {"bfs", "cc", "sssp"})
    for (std::size_t threads : {1u, 2u, 4u})
      for (double threshold : {0.05, 0.0, 2.0})
        cases.push_back(
            {app, comm::BackendKind::Lci, 2, 12, threads, threshold});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, GeminiApps, ::testing::ValuesIn(make_cases()),
                         case_name);

/// The privatized dense combine (gemini/dense_combine.hpp) against the
/// sequential CAS push it replaced, on a seeded weighted CSR with duplicate
/// edges, sinks, mirror-only destinations and kInf frontier sources.
TEST(GeminiDenseCombine, MatchesSequentialCasPush) {
  using Traits = apps::SsspTraits;
  using Label = Traits::Label;
  constexpr std::size_t kMasters = 9000;
  constexpr std::size_t kLocal = 13037;  // not a multiple of 64
  rt::Xoshiro256 rng(20261017);
  graph::EdgeList edges;
  std::vector<graph::Weight> weights;
  for (std::size_t u = 0; u < kMasters; ++u) {
    if (rng.below(8) == 0) continue;  // sink
    const std::size_t deg = 1 + rng.below(u % 97 == 0 ? 300 : 12);
    for (std::size_t k = 0; k < deg; ++k) {
      const auto v = static_cast<graph::VertexId>(rng.below(kLocal));
      const auto w = static_cast<graph::Weight>(1 + rng.below(9));
      edges.push_back({static_cast<graph::VertexId>(u), v});
      weights.push_back(w);
      if (rng.below(5) == 0) {  // duplicate edge, different weight
        edges.push_back({static_cast<graph::VertexId>(u), v});
        weights.push_back(static_cast<graph::Weight>(1 + rng.below(9)));
      }
    }
  }
  const graph::Csr csr = graph::Csr::from_edges(
      static_cast<graph::VertexId>(kLocal), edges, weights);

  for (std::size_t threads : {1u, 2u, 4u}) {
    rt::ThreadTeam team(threads);
    std::vector<Label> combined(kLocal, Traits::kInf);
    auto priv = gemini::make_private_slots<Traits>(threads, kLocal);
    rt::ConcurrentBitset touched(kLocal);
    // Several rounds over one scratch set: the merge must leave the private
    // slots at kInf, and `touched` must not carry bits between rounds.
    for (int round = 0; round < 3; ++round) {
      std::vector<Label> labels(kMasters);
      rt::ConcurrentBitset frontier(kMasters);
      for (std::size_t u = 0; u < kMasters; ++u) {
        labels[u] = rng.below(10) == 0
                        ? Traits::kInf
                        : static_cast<Label>(rng.below(1u << 20));
        if (rng.below(round == 2 ? 50 : 2) == 0) frontier.set(u);
      }

      std::vector<Label> expected(kLocal, Traits::kInf);
      rt::ConcurrentBitset expected_touched(kLocal);
      frontier.for_each([&](std::size_t u) {
        csr.for_each_edge(static_cast<graph::VertexId>(u),
                          [&](graph::VertexId v, graph::Weight w) {
                            const Label cand = Traits::relax(labels[u], w);
                            if (cand == Traits::kInf) return;
                            if (apps::atomic_min(expected[v], cand))
                              expected_touched.set(v);
                          });
      });

      gemini::dense_combine<Traits>(team, csr, frontier, labels, combined,
                                    priv, touched);
      ASSERT_EQ(combined, expected) << threads << " threads, round " << round;
      for (std::size_t v = 0; v < kLocal; ++v)
        ASSERT_EQ(touched.test(v), expected_touched.test(v))
            << "lid " << v << ", " << threads << " threads, round " << round;
      for (const auto& p : priv)
        for (const Label x : p) ASSERT_EQ(x, Traits::kInf);
      combined.assign(kLocal, Traits::kInf);
    }
  }
}

/// Pins Gemini's active-edge switch: one hub source whose out-edges are a
/// quarter of its host's local edges, while the hub itself is one of about
/// a thousand masters. A vertex-count rule would run that round sparse;
/// the edge rule must run it dense.
TEST(GeminiExtra, HubFrontierGoesDenseOnActiveEdges) {
  constexpr graph::VertexId kNodes = 4096;
  constexpr graph::VertexId kLeaves = 256;  // sinks: BFS stops after round 0
  graph::EdgeList edges;
  for (graph::VertexId v = 1; v <= kLeaves; ++v) edges.push_back({0, v});
  for (graph::VertexId v = kLeaves + 1; v < kNodes; ++v)
    edges.push_back({v, v + 1 < kNodes ? v + 1 : kLeaves + 1});
  const graph::Csr g = graph::Csr::from_edges(kNodes, edges);
  constexpr int kHosts = 4;

  const auto parts =
      graph::partition(g, kHosts, graph::PartitionPolicy::BlockedEdgeCut);
  const graph::DistGraph& h0 = parts[0];
  ASSERT_EQ(h0.owner_of(0), 0);
  ASSERT_LT(1.0, 0.05 * h0.num_masters) << "premise: hub is < 5% of masters";
  ASSERT_GT(static_cast<double>(h0.out_edges.degree(0)),
            0.05 * static_cast<double>(h0.out_edges.num_edges()))
      << "premise: hub's out-edges are > 5% of the host's edges";

  for (double threshold : {0.05, 2.0}) {
    bench::RunSpec spec;
    spec.app = "bfs";
    spec.engine = "gemini";
    spec.backend = comm::BackendKind::Lci;
    spec.hosts = kHosts;
    spec.threads = 1;
    spec.source = 0;
    spec.gemini_dense_threshold = threshold;
    const bench::RunResult r = bench::run_app(g, spec);
    EXPECT_EQ(r.labels_u32, apps::reference_bfs(g, 0));
    // One round everywhere; only the hub's host has a non-empty frontier.
    const std::uint64_t dense = r.telemetry.at("gemini.dense_rounds");
    const std::uint64_t sparse = r.telemetry.at("gemini.sparse_rounds");
    EXPECT_EQ(dense, threshold > 1.0 ? 0u : 1u) << "threshold " << threshold;
    EXPECT_EQ(dense + sparse, static_cast<std::uint64_t>(kHosts));
  }
}

/// Dual-mode check: forcing sparse signals, forcing dense pre-combining,
/// and the adaptive default must all converge to the same labels.
TEST(GeminiExtra, SparseAndDenseModesAgree) {
  graph::Csr g = graph::kron(8, 16.0);
  auto parts =
      graph::partition(g, 3, graph::PartitionPolicy::BlockedEdgeCut);
  const graph::VertexId source = bench::choose_source(g);
  const auto expected = apps::reference_bfs(g, source);

  for (double threshold : {2.0 /*always sparse*/, 0.0 /*always dense*/,
                           0.05 /*adaptive*/}) {
    abelian::Cluster cluster(3, fabric::test_config());
    std::vector<std::uint32_t> labels(g.num_nodes(), 0);
    std::uint64_t sparse_rounds = 0, dense_rounds = 0;
    cluster.run([&](int h) {
      const auto& part = parts[static_cast<std::size_t>(h)];
      gemini::GeminiConfig cfg;
      cfg.comm = gemini::CommKind::Lci;
      cfg.dense_threshold = threshold;
      gemini::GeminiHost host(cluster, part, cfg);
      auto local = host.run_push<apps::BfsTraits>(source);
      const graph::VertexId mlo =
          part.master_bounds[static_cast<std::size_t>(h)];
      for (graph::VertexId i = 0; i < part.num_masters; ++i)
        labels[mlo + i] = local[i];
      if (h == 0) {
        sparse_rounds = host.stats().sparse_rounds;
        dense_rounds = host.stats().dense_rounds;
      }
      cluster.oob_barrier();
    });
    EXPECT_EQ(labels, expected) << "threshold " << threshold;
    if (threshold > 1.0) {
      EXPECT_EQ(dense_rounds, 0u);
    }
    // threshold 0: every round with a non-empty local frontier is dense
    // (an empty local frontier while peers are still active counts sparse).
    if (threshold == 0.0) {
      EXPECT_GT(dense_rounds, 0u);
    }
    (void)sparse_rounds;
  }
}

/// Dense mode sends at most one record per destination per round, so it
/// must move fewer bytes than sparse mode on a dense-frontier app (cc).
TEST(GeminiExtra, DenseModeReducesTraffic) {
  graph::Csr g = graph::symmetrize(graph::kron(8, 16.0));
  auto parts =
      graph::partition(g, 3, graph::PartitionPolicy::BlockedEdgeCut);
  std::uint64_t bytes_sparse = 0, bytes_dense = 0;
  for (bool dense : {false, true}) {
    abelian::Cluster cluster(3, fabric::test_config());
    std::atomic<std::uint64_t> total{0};
    cluster.run([&](int h) {
      gemini::GeminiConfig cfg;
      cfg.dense_threshold = dense ? 0.0 : 2.0;
      gemini::GeminiHost host(cluster,
                              parts[static_cast<std::size_t>(h)], cfg);
      auto local = host.run_push<apps::CcTraits>(0);
      total.fetch_add(host.stats().bytes.load());
      cluster.oob_barrier();
    });
    (dense ? bytes_dense : bytes_sparse) = total.load();
  }
  EXPECT_LT(bytes_dense, bytes_sparse);
}

TEST(GeminiExtra, StatsArePopulated) {
  graph::Csr g = graph::rmat(7, 8.0);
  bench::RunSpec spec;
  spec.app = "bfs";
  spec.engine = "gemini";
  spec.hosts = 4;
  spec.source = bench::choose_source(g);
  const auto result = bench::run_app(g, spec);
  EXPECT_GT(result.rounds, 0u);
  EXPECT_GT(result.messages, 0u);
  EXPECT_GT(result.bytes, 0u);
}

/// Malformed chunks on the streamed receive path are released and counted,
/// never applied or noted toward the round ledger: host 1 sends host 0 a
/// truncated frame (shorter than a chunk header) and a full frame whose
/// header fails its checksum, host 0 drains both during the first round of
/// an SSSP run, and the labels still match the sequential reference.
TEST(GeminiExtra, MalformedChunksRejectedMidRun) {
  constexpr int kHosts = 2;
  graph::GenOptions opt;
  opt.seed = 777;
  opt.make_weights = true;
  opt.max_weight = 8;
  const graph::Csr g = graph::rmat(8, 8.0, opt);
  const graph::VertexId source = bench::choose_source(g);
  const auto parts =
      graph::partition(g, kHosts, graph::PartitionPolicy::BlockedEdgeCut);
  std::vector<std::uint32_t> labels(g.num_nodes());
  std::vector<std::uint64_t> rejects(kHosts, 0);

  abelian::Cluster cluster(kHosts, fabric::test_config());
  cluster.run([&](int h) {
    const graph::DistGraph& part = parts[static_cast<std::size_t>(h)];
    gemini::GeminiHost host(cluster, part, gemini::GeminiConfig{});
    cluster.oob_barrier();
    if (h == 1) {
      comm::ChunkHeader header;
      header.phase_id = 0;  // the first round's phase
      header.num_chunks = 0;
      header.format = static_cast<std::uint8_t>(comm::WireFormat::Raw);
      header.finalize();
      auto send = [&](std::size_t bytes) {
        comm::BufferLease lease = host.backend().acquire(0, bytes);
        std::memcpy(lease.data, &header, std::min(bytes, sizeof(header)));
        while (!host.backend().commit(0, lease, bytes)) {
        }
      };
      send(comm::kChunkHeaderBytes / 2);  // truncated
      header.chunk_idx = 1;               // after finalize(): bad checksum
      send(comm::kChunkHeaderBytes);
    }
    cluster.oob_barrier();
    // Let the fabric deliver both frames before the run starts draining.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    const std::vector<std::uint32_t> mine =
        host.run_push<apps::SsspTraits>(source);
    std::copy(mine.begin(), mine.end(), labels.begin() + part.master_lo());
    rejects[static_cast<std::size_t>(h)] = host.stats().decode_rejects.load();
    cluster.oob_barrier();
  });

  EXPECT_EQ(labels, apps::reference_sssp(g, source));
  EXPECT_EQ(rejects[0], 2u);
  EXPECT_EQ(rejects[1], 0u);
}

/// Gemini has no MPI-RMA runtime: run_app refuses instead of running the
/// THREAD_MULTIPLE MPI path under an RMA label.
TEST(GeminiExtra, RejectsMpiRmaBackend) {
  graph::Csr g = graph::rmat(5, 4.0);
  bench::RunSpec spec;
  spec.app = "bfs";
  spec.engine = "gemini";
  spec.backend = comm::BackendKind::MpiRma;
  spec.hosts = 2;
  EXPECT_THROW(bench::run_app(g, spec), std::invalid_argument);
}

/// kcore and sssp_delta have no Gemini entry point in the runner's app
/// table: run_app refuses them up front, like an unknown app.
TEST(GeminiExtra, RejectsAbelianOnlyApps) {
  graph::Csr g = graph::rmat(5, 4.0);
  bench::RunSpec spec;
  spec.engine = "gemini";
  spec.hosts = 2;
  for (const char* app : {"kcore", "sssp_delta", "nope"}) {
    spec.app = app;
    EXPECT_THROW(bench::run_app(g, spec), std::invalid_argument) << app;
  }
}

}  // namespace
}  // namespace lcr
