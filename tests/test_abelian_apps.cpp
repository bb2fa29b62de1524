// End-to-end correctness of the Abelian engine: every app validated against
// sequential references across backends, partition policies, and host
// counts (parameterized sweep).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <sstream>

#include "abelian/cluster.hpp"
#include "apps/bfs.hpp"
#include "apps/cc.hpp"
#include "apps/pagerank_pull.hpp"
#include "apps/pull_engine.hpp"
#include "apps/reference.hpp"
#include "apps/sssp.hpp"
#include "apps/sssp_delta.hpp"
#include "bench_support/runner.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "runtime/thread_team.hpp"

namespace lcr {
namespace {

struct AppCase {
  const char* app;
  comm::BackendKind backend;
  graph::PartitionPolicy policy;
  int hosts;
};

std::string case_name(const ::testing::TestParamInfo<AppCase>& info) {
  std::ostringstream os;
  os << info.param.app << "_";
  switch (info.param.backend) {
    case comm::BackendKind::Lci: os << "lci"; break;
    case comm::BackendKind::MpiProbe: os << "probe"; break;
    case comm::BackendKind::MpiRma: os << "rma"; break;
  }
  os << "_";
  switch (info.param.policy) {
    case graph::PartitionPolicy::BlockedEdgeCut: os << "bec"; break;
    case graph::PartitionPolicy::OutgoingEdgeCut: os << "oec"; break;
    case graph::PartitionPolicy::IncomingEdgeCut: os << "iec"; break;
    case graph::PartitionPolicy::CartesianVertexCut: os << "cvc"; break;
  }
  os << "_h" << info.param.hosts;
  return os.str();
}

class AbelianApps : public ::testing::TestWithParam<AppCase> {};

TEST_P(AbelianApps, MatchesSequentialReference) {
  const AppCase& c = GetParam();
  graph::GenOptions opt;
  opt.seed = 1234;
  opt.make_weights = true;
  opt.max_weight = 16;
  graph::Csr g = graph::rmat(7, 8.0, opt);
  const bool is_cc = std::string(c.app) == "cc";
  if (is_cc) g = graph::symmetrize(g);

  bench::RunSpec spec;
  spec.app = c.app;
  spec.engine = "abelian";
  spec.backend = c.backend;
  spec.policy = c.policy;
  spec.hosts = c.hosts;
  spec.threads = 2;
  spec.source = bench::choose_source(g);
  spec.pagerank_iters = 10;

  const bench::RunResult result = bench::run_app(g, spec);

  if (std::string(c.app) == "bfs") {
    EXPECT_EQ(result.labels_u32, apps::reference_bfs(g, spec.source));
  } else if (std::string(c.app) == "sssp") {
    EXPECT_EQ(result.labels_u32, apps::reference_sssp(g, spec.source));
  } else if (is_cc) {
    EXPECT_EQ(result.labels_u32, apps::reference_cc(g));
  } else {
    const auto expected = apps::reference_pagerank(g, 0.85, 10, 0.0);
    ASSERT_EQ(result.labels_f64.size(), expected.size());
    for (std::size_t v = 0; v < expected.size(); ++v)
      EXPECT_NEAR(result.labels_f64[v], expected[v], 1e-9) << "vertex " << v;
  }
  EXPECT_GT(result.rounds, 0u);
}

std::vector<AppCase> make_cases() {
  std::vector<AppCase> cases;
  const char* apps[] = {"bfs", "cc", "sssp", "pagerank"};
  const comm::BackendKind backends[] = {comm::BackendKind::Lci,
                                        comm::BackendKind::MpiProbe,
                                        comm::BackendKind::MpiRma};
  // Core sweep: every app x backend on the vertex cut at 4 hosts.
  for (const char* app : apps)
    for (auto backend : backends)
      cases.push_back(
          {app, backend, graph::PartitionPolicy::CartesianVertexCut, 4});
  // Policy coverage with the LCI backend (including the broadcast-only
  // incoming edge-cut plan).
  for (const char* app : apps) {
    cases.push_back(
        {app, comm::BackendKind::Lci, graph::PartitionPolicy::OutgoingEdgeCut,
         4});
    cases.push_back({app, comm::BackendKind::Lci,
                     graph::PartitionPolicy::BlockedEdgeCut, 3});
    cases.push_back({app, comm::BackendKind::Lci,
                     graph::PartitionPolicy::IncomingEdgeCut, 4});
  }
  cases.push_back({"bfs", comm::BackendKind::MpiProbe,
                   graph::PartitionPolicy::IncomingEdgeCut, 3});
  cases.push_back({"pagerank", comm::BackendKind::MpiRma,
                   graph::PartitionPolicy::IncomingEdgeCut, 4});
  // Host-count coverage (including the degenerate single host).
  for (auto backend : backends) {
    cases.push_back(
        {"bfs", backend, graph::PartitionPolicy::CartesianVertexCut, 1});
    cases.push_back(
        {"pagerank", backend, graph::PartitionPolicy::CartesianVertexCut, 2});
    cases.push_back(
        {"sssp", backend, graph::PartitionPolicy::OutgoingEdgeCut, 2});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, AbelianApps, ::testing::ValuesIn(make_cases()),
                         case_name);

// ---------------------------------------------------------------------------
// Pull-style operators (paper Section II's second operator style)
// ---------------------------------------------------------------------------

struct PullCase {
  const char* app;  // bfs | cc | sssp
  graph::PartitionPolicy policy;
  int hosts;
};

class PullApps : public ::testing::TestWithParam<PullCase> {};

TEST_P(PullApps, PullMatchesReference) {
  const PullCase& c = GetParam();
  graph::GenOptions opt;
  opt.seed = 99;
  opt.make_weights = true;
  opt.max_weight = 16;
  graph::Csr g = graph::rmat(7, 8.0, opt);
  const bool is_cc = std::string(c.app) == "cc";
  if (is_cc) g = graph::symmetrize(g);
  const graph::VertexId source = bench::choose_source(g);

  auto parts = graph::partition(g, c.hosts, c.policy);
  abelian::Cluster cluster(c.hosts, fabric::test_config());
  std::vector<std::uint32_t> labels(g.num_nodes(), 0);
  cluster.run([&](int h) {
    const auto& part = parts[static_cast<std::size_t>(h)];
    abelian::EngineConfig cfg;
    abelian::HostEngine eng(cluster, part, cfg);
    std::vector<std::uint32_t> local;
    if (std::string(c.app) == "bfs")
      local = apps::run_pull<apps::BfsTraits>(eng, source);
    else if (is_cc)
      local = apps::run_pull<apps::CcTraits>(eng, 0);
    else
      local = apps::run_pull<apps::SsspTraits>(eng, source);
    for (graph::VertexId lid = 0; lid < part.num_masters; ++lid)
      labels[part.local_to_global(lid)] = local[lid];
    cluster.oob_barrier();
  });

  if (std::string(c.app) == "bfs")
    EXPECT_EQ(labels, apps::reference_bfs(g, source));
  else if (is_cc)
    EXPECT_EQ(labels, apps::reference_cc(g));
  else
    EXPECT_EQ(labels, apps::reference_sssp(g, source));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PullApps,
    ::testing::Values(
        PullCase{"bfs", graph::PartitionPolicy::CartesianVertexCut, 4},
        PullCase{"bfs", graph::PartitionPolicy::OutgoingEdgeCut, 3},
        PullCase{"bfs", graph::PartitionPolicy::IncomingEdgeCut, 4},
        PullCase{"cc", graph::PartitionPolicy::CartesianVertexCut, 4},
        PullCase{"cc", graph::PartitionPolicy::IncomingEdgeCut, 2},
        PullCase{"sssp", graph::PartitionPolicy::CartesianVertexCut, 4},
        PullCase{"sssp", graph::PartitionPolicy::OutgoingEdgeCut, 2}),
    [](const auto& info) {
      std::ostringstream os;
      os << info.param.app << "_";
      switch (info.param.policy) {
        case graph::PartitionPolicy::OutgoingEdgeCut: os << "oec"; break;
        case graph::PartitionPolicy::IncomingEdgeCut: os << "iec"; break;
        default: os << "cvc"; break;
      }
      os << "_h" << info.param.hosts;
      return os.str();
    });

TEST(AbelianAppsExtra, BfsOnDisconnectedGraphLeavesInfinity) {
  // Two stars with no edges between them.
  graph::EdgeList edges;
  for (graph::VertexId v = 1; v < 8; ++v) edges.emplace_back(0, v);
  for (graph::VertexId v = 17; v < 24; ++v) edges.emplace_back(16, v);
  graph::Csr g = graph::Csr::from_edges(32, edges);

  bench::RunSpec spec;
  spec.app = "bfs";
  spec.hosts = 2;
  spec.source = 0;
  spec.policy = graph::PartitionPolicy::OutgoingEdgeCut;
  const auto result = bench::run_app(g, spec);
  EXPECT_EQ(result.labels_u32, apps::reference_bfs(g, 0));
  EXPECT_EQ(result.labels_u32[16], ~std::uint32_t{0});  // unreachable
}

TEST(AbelianAppsExtra, CcFindsMultipleComponents) {
  graph::EdgeList edges{{0, 1}, {1, 0}, {2, 3}, {3, 2}, {4, 5}, {5, 4}};
  graph::Csr g = graph::Csr::from_edges(6, edges);
  bench::RunSpec spec;
  spec.app = "cc";
  spec.hosts = 3;
  spec.policy = graph::PartitionPolicy::CartesianVertexCut;
  const auto result = bench::run_app(g, spec);
  EXPECT_EQ(result.labels_u32, (std::vector<std::uint32_t>{0, 0, 2, 2, 4, 4}));
}

TEST(AbelianAppsExtra, SsspRespectsWeights) {
  // 0 -> 1 (weight 10), 0 -> 2 (1), 2 -> 1 (1): shortest 0->1 is 2 via 2.
  graph::EdgeList edges{{0, 1}, {0, 2}, {2, 1}};
  std::vector<graph::Weight> weights{10, 1, 1};
  graph::Csr g = graph::Csr::from_edges(3, edges, weights);
  bench::RunSpec spec;
  spec.app = "sssp";
  spec.hosts = 2;
  spec.source = 0;
  spec.policy = graph::PartitionPolicy::OutgoingEdgeCut;
  const auto result = bench::run_app(g, spec);
  EXPECT_EQ(result.labels_u32[1], 2u);
  EXPECT_EQ(result.labels_u32[2], 1u);
}

// ---------------------------------------------------------------------------
// Delta-stepping SSSP
// ---------------------------------------------------------------------------

class DeltaSssp
    : public ::testing::TestWithParam<graph::PartitionPolicy> {};

TEST_P(DeltaSssp, MatchesDijkstraAcrossDeltas) {
  graph::GenOptions opt;
  opt.seed = 55;
  opt.make_weights = true;
  opt.max_weight = 32;
  graph::Csr g = graph::rmat(7, 8.0, opt);
  const graph::VertexId source = bench::choose_source(g);
  const auto expected = apps::reference_sssp(g, source);

  for (std::uint32_t delta : {1u, 8u, 64u, 0u /*heuristic*/}) {
    auto parts = graph::partition(g, 4, GetParam());
    abelian::Cluster cluster(4, fabric::test_config());
    std::vector<std::uint32_t> labels(g.num_nodes(), 0);
    cluster.run([&](int h) {
      const auto& part = parts[static_cast<std::size_t>(h)];
      abelian::EngineConfig cfg;
      abelian::HostEngine eng(cluster, part, cfg);
      apps::DeltaSsspStats stats;
      auto local = apps::run_sssp_delta(eng, source, delta, &stats);
      if (delta == 1) {
        EXPECT_GT(stats.buckets, 1u);  // real bucketing
      }
      for (graph::VertexId lid = 0; lid < part.num_masters; ++lid)
        labels[part.local_to_global(lid)] = local[lid];
      cluster.oob_barrier();
    });
    EXPECT_EQ(labels, expected) << "delta " << delta;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, DeltaSssp,
    ::testing::Values(graph::PartitionPolicy::CartesianVertexCut,
                      graph::PartitionPolicy::OutgoingEdgeCut,
                      graph::PartitionPolicy::IncomingEdgeCut),
    [](const auto& info) {
      switch (info.param) {
        case graph::PartitionPolicy::OutgoingEdgeCut: return "oec";
        case graph::PartitionPolicy::IncomingEdgeCut: return "iec";
        default: return "cvc";
      }
    });

TEST(DeltaSsspExtra, RunnerIntegration) {
  graph::GenOptions opt;
  opt.make_weights = true;
  graph::Csr g = graph::kron(7, 16.0, opt);
  bench::RunSpec spec;
  spec.app = "sssp_delta";
  spec.hosts = 3;
  spec.source = bench::choose_source(g);
  const auto result = bench::run_app(g, spec);
  EXPECT_EQ(result.labels_u32, apps::reference_sssp(g, spec.source));
}

TEST(AbelianAppsExtra, PagerankMassConserved) {
  graph::Csr g = graph::kron(7, 16.0);
  bench::RunSpec spec;
  spec.app = "pagerank";
  spec.hosts = 4;
  spec.pagerank_iters = 5;
  const auto result = bench::run_app(g, spec);
  const auto expected = apps::reference_pagerank(g, 0.85, 5, 0.0);
  double total = 0.0;
  double expected_total = 0.0;
  for (std::size_t v = 0; v < expected.size(); ++v) {
    total += result.labels_f64[v];
    expected_total += expected[v];
  }
  EXPECT_NEAR(total, expected_total, 1e-9);
}

std::uint64_t bits_of(double d) {
  std::uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

// The pull pass must add the same doubles in the same order as a sequential
// push along out-edges, so the sums agree bit for bit. The graph mixes
// duplicate edges, sources with zero out-degree, isolated vertices, and
// out-degrees above the local degree (a partitioned host's mirrors).
TEST(PagerankPull, BitwiseEqualToSequentialPush) {
  constexpr graph::VertexId kN = 600;
  constexpr graph::VertexId kSinks = 450;     // [450, 520): no out-edges
  constexpr graph::VertexId kIsolated = 520;  // [520, 600): no edges at all
  std::mt19937_64 rng(20240611);
  std::uniform_int_distribution<graph::VertexId> src_of(0, kSinks - 1);
  std::uniform_int_distribution<graph::VertexId> dst_of(0, kIsolated - 1);
  graph::EdgeList edges;
  for (int i = 0; i < 6000; ++i) edges.emplace_back(src_of(rng), dst_of(rng));
  for (int i = 0; i < 800; ++i) edges.push_back(edges[rng() % edges.size()]);
  std::shuffle(edges.begin(), edges.end(), rng);
  const graph::Csr out = graph::Csr::from_edges(kN, edges);
  const graph::Csr in = out.reverse();

  std::vector<std::uint32_t> out_degree(kN);
  std::vector<double> rank(kN);
  std::uniform_real_distribution<double> mantissa(0.5, 1.0);
  for (graph::VertexId u = 0; u < kN; ++u) {
    out_degree[u] = static_cast<std::uint32_t>(out.degree(u)) +
                    static_cast<std::uint32_t>(rng() % 3);
    if (u >= kIsolated) out_degree[u] = 0;
    // Magnitudes spread over ~20 binades so summation order is visible.
    rank[u] = std::ldexp(mantissa(rng), -static_cast<int>(rng() % 20));
  }

  std::vector<double> expected(kN, 0.0);
  for (graph::VertexId u = 0; u < kN; ++u) {
    if (out_degree[u] == 0) continue;
    const double c = rank[u] / static_cast<double>(out_degree[u]);
    out.for_each_edge(u, [&](graph::VertexId dst, graph::Weight) {
      expected[dst] += c;
    });
  }

  // The data must actually be order-sensitive, or the check below is vacuous.
  std::size_t order_sensitive = 0;
  for (graph::VertexId v = 0; v < kN; ++v) {
    double reversed = 0.0;
    for (graph::EdgeId e = in.edge_end(v); e > in.edge_begin(v); --e) {
      const graph::VertexId u = in.edge_target(e - 1);
      reversed += rank[u] / static_cast<double>(out_degree[u]);
    }
    if (bits_of(reversed) != bits_of(expected[v])) ++order_sensitive;
  }
  ASSERT_GT(order_sensitive, 0u);

  for (const std::size_t threads : {1u, 4u}) {
    rt::ThreadTeam team(threads);
    std::vector<double> contrib(kN, 0.0);
    std::vector<double> accum(kN, std::nan(""));  // every slot is rewritten
    rt::ConcurrentBitset dirty(kN);
    for (graph::VertexId v = 0; v < kN; ++v) dirty.set(v);  // stale bits
    apps::pull_rank_contributions(team, in, out_degree, rank, contrib, accum,
                                  dirty);
    for (graph::VertexId v = 0; v < kN; ++v) {
      EXPECT_EQ(bits_of(accum[v]), bits_of(expected[v]))
          << "vertex " << v << " threads " << threads;
      EXPECT_EQ(dirty.test(v), in.degree(v) > 0) << "vertex " << v;
    }
  }
}

// With the owner-writes pull, and at most two non-zero partial sums per
// master on a 2x2 Cartesian vertex cut (a master's in-edges live on the two
// hosts of one grid column), PageRank is a deterministic function of the
// graph: neither the compute-thread count nor the host scheduler may change
// a single bit. (Not asserted on the outgoing edge-cut, where the Add-reduce
// applies several mirrors' contributions in arrival order.)
TEST(AbelianAppsExtra, PagerankBitwiseDeterministicAcrossThreadsAndSchedulers) {
  // Scale 13 gives each host several of the team's 1024-vertex chunks, so
  // the compute threads really split the pass (a push kernel with atomic
  // adds fails this check on this graph).
  graph::GenOptions opt;
  opt.seed = 4242;
  const graph::Csr g = graph::kron(13, 16.0, opt);
  bench::RunSpec spec;
  spec.app = "pagerank";
  spec.backend = comm::BackendKind::Lci;
  spec.policy = graph::PartitionPolicy::CartesianVertexCut;
  spec.hosts = 4;
  spec.pagerank_iters = 10;
  spec.pagerank_tol = 0.0;

  bool have_base = false;
  bench::RunResult base;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    for (const char* sched : {"os", "ult"}) {
      spec.threads = threads;
      spec.host_sched = sched;
      const bench::RunResult r = bench::run_app(g, spec);
      SCOPED_TRACE(::testing::Message()
                   << "threads " << threads << " host_sched " << sched);
      if (!have_base) {
        base = r;
        have_base = true;
        continue;
      }
      ASSERT_EQ(r.labels_f64.size(), base.labels_f64.size());
      std::size_t mismatches = 0;
      for (std::size_t v = 0; v < base.labels_f64.size(); ++v)
        if (bits_of(r.labels_f64[v]) != bits_of(base.labels_f64[v]))
          ++mismatches;
      EXPECT_EQ(mismatches, 0u);
      EXPECT_EQ(r.rounds, base.rounds);
      EXPECT_EQ(r.messages, base.messages);
      EXPECT_EQ(r.bytes, base.bytes);
    }
  }
}

}  // namespace
}  // namespace lcr
