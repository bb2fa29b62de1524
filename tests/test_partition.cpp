// Tests for partitioners and the distributed-graph invariants the sync
// machinery relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "runtime/ult.hpp"

namespace lcr {
namespace {

using graph::PartitionPolicy;

struct PartitionCase {
  PartitionPolicy policy;
  int hosts;
  unsigned scale = 9;  ///< rmat(scale, 8)
};

class PartitionInvariants
    : public ::testing::TestWithParam<PartitionCase> {};

/// The host that `any`'s policy places edge (u, v) on, derived from its
/// master bounds (the rule DESIGN.md §17 documents, restated here so the
/// test does not share the partitioner's code).
int policy_host(const graph::DistGraph& any, graph::VertexId u,
                graph::VertexId v) {
  const int ou = any.owner_of(u);
  const int ov = any.owner_of(v);
  switch (any.policy) {
    case PartitionPolicy::BlockedEdgeCut:
    case PartitionPolicy::OutgoingEdgeCut:
      return ou;
    case PartitionPolicy::IncomingEdgeCut:
      return ov;
    case PartitionPolicy::CartesianVertexCut: {
      const auto [pr, pc] = graph::cvc_grid(any.num_hosts);
      return (ou * pr / any.num_hosts) * pc + ov * pc / any.num_hosts;
    }
  }
  return ou;
}

TEST_P(PartitionInvariants, HoldOnRmat) {
  const auto [policy, hosts, scale] = GetParam();
  graph::Csr g =
      graph::rmat(scale, 8.0, graph::GenOptions{.make_weights = true});
  auto parts = graph::partition(g, hosts, policy);
  ASSERT_EQ(parts.size(), static_cast<std::size_t>(hosts));
  const bool fewer_vertices_than_hosts =
      g.num_nodes() < static_cast<graph::VertexId>(hosts);

  // 1. Every vertex is mastered by exactly one host, and master blocks are
  //    contiguous and complete.
  std::vector<int> master_count(g.num_nodes(), 0);
  for (const auto& part : parts)
    for (graph::VertexId lid = 0; lid < part.num_masters; ++lid)
      ++master_count[part.local_to_global(lid)];
  for (graph::VertexId v = 0; v < g.num_nodes(); ++v)
    EXPECT_EQ(master_count[v], 1) << "vertex " << v;

  // 2. Edges are partitioned: the local edge counts sum to |E| and each
  //    local edge maps to a global edge.
  graph::EdgeId total_edges = 0;
  for (const auto& part : parts) total_edges += part.out_edges.num_edges();
  EXPECT_EQ(total_edges, g.num_edges());

  // 3. Local ids: masters first (sorted by gid), then mirrors (sorted), and
  //    the compressed map round-trips both directions.
  for (const auto& part : parts) {
    for (graph::VertexId lid = 1; lid < part.num_masters; ++lid)
      EXPECT_LT(part.local_to_global(lid - 1), part.local_to_global(lid));
    for (graph::VertexId lid = part.num_masters + 1; lid < part.num_local;
         ++lid)
      EXPECT_LT(part.local_to_global(lid - 1), part.local_to_global(lid));
    // owner_of agrees with the master block; g2l inverts l2g exactly.
    for (graph::VertexId lid = 0; lid < part.num_masters; ++lid)
      EXPECT_EQ(part.owner_of(part.local_to_global(lid)), part.host_id);
    for (graph::VertexId lid = part.num_masters; lid < part.num_local; ++lid)
      EXPECT_NE(part.owner_of(part.local_to_global(lid)), part.host_id);
    for (graph::VertexId lid = 0; lid < part.num_local; ++lid)
      EXPECT_EQ(part.global_to_local(part.local_to_global(lid)), lid);
  }

  // 4. Memoized sync plans agree pairwise: host A's mirror_to_master.span(B)
  //    lists the same global vertices, in the same order, as host B's
  //    master_to_mirror.span(A).
  for (int a = 0; a < hosts; ++a) {
    for (int b = 0; b < hosts; ++b) {
      const graph::PlanSpan m2m = parts[a].mirror_to_master.span(b);
      const graph::PlanSpan rev = parts[b].master_to_mirror.span(a);
      ASSERT_EQ(m2m.size(), rev.size()) << "pair " << a << "," << b;
      std::vector<graph::VertexId> a_gids;
      std::vector<graph::VertexId> b_gids;
      m2m.visit(0, static_cast<std::uint32_t>(m2m.size()),
                [&](std::uint32_t, graph::VertexId lid) {
                  a_gids.push_back(parts[a].local_to_global(lid));
                });
      rev.visit(0, static_cast<std::uint32_t>(rev.size()),
                [&](std::uint32_t, graph::VertexId lid) {
                  b_gids.push_back(parts[b].local_to_global(lid));
                });
      EXPECT_EQ(a_gids, b_gids) << "pair " << a << "," << b;
      // Streaming cursor decode matches bulk visit at random positions.
      graph::PlanCursor cur(m2m);
      for (std::size_t i = 0; i < m2m.size(); i += 7)
        EXPECT_EQ(cur.at(static_cast<std::uint32_t>(i)),
                  parts[a].global_to_local(a_gids[i]));
    }
  }

  // 5. Mirror plans cover exactly the mirrors.
  for (const auto& part : parts)
    EXPECT_EQ(part.mirror_to_master.total_entries(),
              static_cast<std::size_t>(part.num_local - part.num_masters));

  // 6. Global out-degrees recorded per proxy match the global graph.
  for (const auto& part : parts)
    for (graph::VertexId lid = 0; lid < part.num_local; ++lid)
      EXPECT_EQ(part.global_out_degree[lid],
                g.degree(part.local_to_global(lid)));

  // 7. The compressed metadata never exceeds the uncompressed model's cost
  //    - unless there are fewer vertices than hosts, where the fixed
  //    per-(host, peer) chunk headers dominate (DESIGN.md §17).
  if (!fewer_vertices_than_hosts) {
    for (const auto& part : parts)
      EXPECT_LE(part.mem_bytes(), part.mem_bytes_uncompressed());
  }

  // 8. Edge level: every global edge (u, v, w) lands exactly once, on the
  //    host the policy names, and each local source lists its edges in the
  //    global CSR's order (source-major, then edge index).
  using Target = std::pair<graph::VertexId, graph::Weight>;
  for (const auto& part : parts) {
    std::vector<std::vector<Target>> expected(g.num_nodes());
    graph::EdgeId expected_edges = 0;
    for (graph::VertexId u = 0; u < g.num_nodes(); ++u)
      g.for_each_edge(u, [&](graph::VertexId v, graph::Weight w) {
        if (policy_host(part, u, v) != part.host_id) return;
        expected[u].emplace_back(v, w);
        ++expected_edges;
      });
    EXPECT_EQ(part.out_edges.num_edges(), expected_edges)
        << "host " << part.host_id;
    for (graph::VertexId src = 0; src < part.num_local; ++src) {
      std::vector<Target> got;
      part.out_edges.for_each_edge(
          src, [&](graph::VertexId dst, graph::Weight w) {
            got.emplace_back(part.local_to_global(dst), w);
          });
      EXPECT_EQ(got, expected[part.local_to_global(src)])
          << "host " << part.host_id << " local " << src;
    }
  }

  // 9. The in-CSR is exactly the transpose Csr::reverse() builds: per
  //    target, sources in lid order, weights alongside.
  for (const auto& part : parts) {
    const graph::Csr rev = part.out_edges.reverse();
    EXPECT_EQ(part.in_edges.offsets(), rev.offsets()) << part.host_id;
    EXPECT_EQ(part.in_edges.targets(), rev.targets()) << part.host_id;
    EXPECT_EQ(part.in_edges.weights(), rev.weights()) << part.host_id;
  }

  // With more hosts than vertices, some hosts master nothing.
  if (fewer_vertices_than_hosts) {
    EXPECT_TRUE(std::any_of(parts.begin(), parts.end(),
                            [](const graph::DistGraph& part) {
                              return part.num_masters == 0;
                            }));
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndHosts, PartitionInvariants,
    ::testing::Values(
        PartitionCase{PartitionPolicy::BlockedEdgeCut, 1},
        PartitionCase{PartitionPolicy::BlockedEdgeCut, 2},
        PartitionCase{PartitionPolicy::BlockedEdgeCut, 4},
        PartitionCase{PartitionPolicy::BlockedEdgeCut, 7},
        PartitionCase{PartitionPolicy::OutgoingEdgeCut, 3},
        PartitionCase{PartitionPolicy::OutgoingEdgeCut, 4},
        PartitionCase{PartitionPolicy::IncomingEdgeCut, 2},
        PartitionCase{PartitionPolicy::IncomingEdgeCut, 4},
        PartitionCase{PartitionPolicy::IncomingEdgeCut, 5},
        PartitionCase{PartitionPolicy::CartesianVertexCut, 2},
        PartitionCase{PartitionPolicy::CartesianVertexCut, 4},
        PartitionCase{PartitionPolicy::CartesianVertexCut, 6},
        PartitionCase{PartitionPolicy::CartesianVertexCut, 8},
        // Many hosts, few vertices: most hosts are empty, and the build's
        // workers are far fewer than the hosts they build.
        PartitionCase{PartitionPolicy::BlockedEdgeCut, 64, 4},
        PartitionCase{PartitionPolicy::OutgoingEdgeCut, 64, 4},
        PartitionCase{PartitionPolicy::IncomingEdgeCut, 64, 4},
        PartitionCase{PartitionPolicy::CartesianVertexCut, 64, 4}));

// ---------------------------------------------------------------------------
// Golden digests: the partitioner's complete output, hashed per (graph,
// policy, host count). Any change to the partition - one l2g entry, one CSR
// slot, one plan lid - changes the digest, so a rewrite of the partitioner
// must reproduce these values exactly. To regenerate after a deliberate
// format change, run the test and copy the printed "actual" digests.
// ---------------------------------------------------------------------------

/// FNV-1a over a stream of 64-bit words.
class Digest {
 public:
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (x >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  template <typename T>
  void add_all(const std::vector<T>& xs) {
    add(xs.size());
    for (const T& x : xs) add(static_cast<std::uint64_t>(x));
  }
  void add_csr(const graph::Csr& c) {
    add_all(c.offsets());
    add_all(c.targets());
    add_all(c.weights());
  }
  void add_plan(const graph::CompressedPlan& plan) {
    add(static_cast<std::uint64_t>(plan.num_peers()));
    for (int p = 0; p < plan.num_peers(); ++p) {
      const graph::PlanSpan span = plan.span(p);
      add(span.size());
      span.visit(0, span.size(),
                 [&](std::uint32_t, graph::VertexId lid) { add(lid); });
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t partition_digest(const std::vector<graph::DistGraph>& parts) {
  Digest d;
  for (const auto& part : parts) {
    d.add(static_cast<std::uint64_t>(part.host_id));
    d.add(static_cast<std::uint64_t>(part.num_hosts));
    d.add(static_cast<std::uint64_t>(part.policy));
    d.add(part.global_nodes);
    d.add(part.num_masters);
    d.add(part.num_local);
    d.add_all(part.master_bounds);
    for (graph::VertexId lid = 0; lid < part.num_local; ++lid)
      d.add(part.local_to_global(lid));
    d.add_csr(part.out_edges);
    d.add_csr(part.in_edges);
    d.add_all(part.global_out_degree);
    d.add_plan(part.mirror_to_master);
    d.add_plan(part.master_to_mirror);
  }
  return d.value();
}

struct GoldenCase {
  const char* graph;  ///< "kron": kron(11, 16, weighted); "rmat": rmat(11, 8)
  PartitionPolicy policy;
  int hosts;
  std::uint64_t digest;
};

graph::Csr golden_graph(const std::string& name) {
  if (name == "kron")
    return graph::kron(11, 16.0,
                       graph::GenOptions{.seed = 7, .make_weights = true});
  return graph::rmat(11, 8.0, graph::GenOptions{.seed = 3});
}

// Recorded from the partitioner that used per-edge binary searches, a
// per-host hash map and sorted mirror lists; the linear-pass partitioner
// must agree byte for byte.
constexpr GoldenCase kGolden[] = {
    {"kron", PartitionPolicy::BlockedEdgeCut, 1, 0xa9fb1491e35bc88aull},
    {"kron", PartitionPolicy::BlockedEdgeCut, 3, 0xdcb25341655eb416ull},
    {"kron", PartitionPolicy::BlockedEdgeCut, 4, 0x5d8781fe5c0ed17bull},
    {"kron", PartitionPolicy::BlockedEdgeCut, 16, 0x8b333c85d8c1437bull},
    {"kron", PartitionPolicy::BlockedEdgeCut, 64, 0x39d9ab6205b5ae5bull},
    {"kron", PartitionPolicy::OutgoingEdgeCut, 1, 0xa664655e2d68a34bull},
    {"kron", PartitionPolicy::OutgoingEdgeCut, 3, 0x29a63eed95aa7a23ull},
    {"kron", PartitionPolicy::OutgoingEdgeCut, 4, 0x53a68999df2ed98full},
    {"kron", PartitionPolicy::OutgoingEdgeCut, 16, 0x7fea7d1c1632ff8bull},
    {"kron", PartitionPolicy::OutgoingEdgeCut, 64, 0x899861b9200c5b1bull},
    {"kron", PartitionPolicy::IncomingEdgeCut, 1, 0x442689a80fcaeb70ull},
    {"kron", PartitionPolicy::IncomingEdgeCut, 3, 0x601cb54da4d2b1c2ull},
    {"kron", PartitionPolicy::IncomingEdgeCut, 4, 0x15b0eb259bd4eec9ull},
    {"kron", PartitionPolicy::IncomingEdgeCut, 16, 0xf06d93e154474bb7ull},
    {"kron", PartitionPolicy::IncomingEdgeCut, 64, 0x87d52d0f7621a705ull},
    {"kron", PartitionPolicy::CartesianVertexCut, 1, 0x3389889520ab80e1ull},
    {"kron", PartitionPolicy::CartesianVertexCut, 3, 0xba098a2d67c0d397ull},
    {"kron", PartitionPolicy::CartesianVertexCut, 4, 0xed9717da102e650aull},
    {"kron", PartitionPolicy::CartesianVertexCut, 16, 0x07820427e8dd52b9ull},
    {"kron", PartitionPolicy::CartesianVertexCut, 64, 0x4bbd29e85eb6efd3ull},
    {"rmat", PartitionPolicy::BlockedEdgeCut, 1, 0x64f5cce2df2e25faull},
    {"rmat", PartitionPolicy::BlockedEdgeCut, 3, 0xc46b9126fc1f981aull},
    {"rmat", PartitionPolicy::BlockedEdgeCut, 4, 0xc2b0d29be76873acull},
    {"rmat", PartitionPolicy::BlockedEdgeCut, 16, 0x1a2c6d23be5aea4eull},
    {"rmat", PartitionPolicy::BlockedEdgeCut, 64, 0xd523ab437fca0eceull},
    {"rmat", PartitionPolicy::OutgoingEdgeCut, 1, 0x0b5d2481addea45full},
    {"rmat", PartitionPolicy::OutgoingEdgeCut, 3, 0x1e191a3fe0ec5263ull},
    {"rmat", PartitionPolicy::OutgoingEdgeCut, 4, 0xbb6eb1d684ff73f4ull},
    {"rmat", PartitionPolicy::OutgoingEdgeCut, 16, 0xfd7e00bcba925e4eull},
    {"rmat", PartitionPolicy::OutgoingEdgeCut, 64, 0x22eed7a89b3ac826ull},
    {"rmat", PartitionPolicy::IncomingEdgeCut, 1, 0xe0cf94ea4dda4f70ull},
    {"rmat", PartitionPolicy::IncomingEdgeCut, 3, 0xbca0261ffe5e3981ull},
    {"rmat", PartitionPolicy::IncomingEdgeCut, 4, 0xf998b90f4d6dd3b2ull},
    {"rmat", PartitionPolicy::IncomingEdgeCut, 16, 0xe370c69b048b2bf0ull},
    {"rmat", PartitionPolicy::IncomingEdgeCut, 64, 0xc94dbba425469e59ull},
    {"rmat", PartitionPolicy::CartesianVertexCut, 1, 0x36554931d7e769f5ull},
    {"rmat", PartitionPolicy::CartesianVertexCut, 3, 0x7fb15599f0439540ull},
    {"rmat", PartitionPolicy::CartesianVertexCut, 4, 0xc7b2dd94ca806ad8ull},
    {"rmat", PartitionPolicy::CartesianVertexCut, 16, 0xced92172e2e42371ull},
    {"rmat", PartitionPolicy::CartesianVertexCut, 64, 0x2961535f37817576ull},
};

const char* enum_name(PartitionPolicy p) {
  switch (p) {
    case PartitionPolicy::BlockedEdgeCut: return "BlockedEdgeCut";
    case PartitionPolicy::OutgoingEdgeCut: return "OutgoingEdgeCut";
    case PartitionPolicy::IncomingEdgeCut: return "IncomingEdgeCut";
    case PartitionPolicy::CartesianVertexCut: return "CartesianVertexCut";
  }
  return "?";
}

TEST(PartitionGolden, OutputMatchesRecordedDigests) {
  const PartitionPolicy policies[] = {
      PartitionPolicy::BlockedEdgeCut, PartitionPolicy::OutgoingEdgeCut,
      PartitionPolicy::IncomingEdgeCut, PartitionPolicy::CartesianVertexCut};
  std::size_t matched = 0;
  std::string actual;  // the full table, printed if anything differs
  for (const char* name : {"kron", "rmat"}) {
    const graph::Csr g = golden_graph(name);
    for (const PartitionPolicy policy : policies) {
      for (const int hosts : {1, 3, 4, 16, 64}) {
        const std::uint64_t got =
            partition_digest(graph::partition(g, hosts, policy));
        char line[128];
        std::snprintf(line, sizeof line,
                      "    {\"%s\", PartitionPolicy::%s, %d, 0x%016llxull},\n",
                      name, enum_name(policy), hosts,
                      static_cast<unsigned long long>(got));
        actual += line;
        for (const GoldenCase& c : kGolden)
          if (c.graph == std::string(name) && c.policy == policy &&
              c.hosts == hosts && c.digest == got)
            ++matched;
      }
    }
  }
  EXPECT_EQ(matched, std::size(kGolden)) << "actual digests:\n" << actual;
  EXPECT_EQ(matched, std::size_t{2 * 4 * 5});
}

// Partitions run concurrently from several threads (run_app callers, test
// fixtures) must not share scratch: three threads each partition every golden
// case, starting a third of the table apart, and every digest must match.
TEST(PartitionGolden, ConcurrentCallsMatchDigests) {
  const graph::Csr kron = golden_graph("kron");
  const graph::Csr rmat = golden_graph("rmat");
  constexpr std::size_t kThreads = 3;
  constexpr std::size_t kCases = std::size(kGolden);
  std::vector<std::string> mismatches(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kCases; ++i) {
        const GoldenCase& c = kGolden[(i + t * kCases / kThreads) % kCases];
        const graph::Csr& g = c.graph == std::string("kron") ? kron : rmat;
        const std::uint64_t got =
            partition_digest(graph::partition(g, c.hosts, c.policy));
        if (got != c.digest)
          mismatches[t] += std::string(c.graph) + " " + enum_name(c.policy) +
                           " x" + std::to_string(c.hosts) + "\n";
      }
    });
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t)
    EXPECT_EQ(mismatches[t], "") << "thread " << t;
}

// Called on a fiber (ULT host scheduler), the build's workers are sibling
// fibers; on a single ULT worker they finish only if every wait yields.
TEST(PartitionGolden, MatchesDigestsOnAFiber) {
  const graph::Csr kron = golden_graph("kron");
  std::size_t matched = 0;
  ult::Scheduler sched({.workers = 1});
  sched.spawn([&] {
    for (const GoldenCase& c : kGolden)
      if (c.graph == std::string("kron") && c.hosts >= 4 &&
          partition_digest(graph::partition(kron, c.hosts, c.policy)) ==
              c.digest)
        ++matched;
  });
  sched.run();
  EXPECT_EQ(matched, std::size_t{4 * 3});  // 4 policies x {4, 16, 64} hosts
}

TEST(Partition, EdgeCutKeepsOutEdgesWithSource) {
  graph::Csr g = graph::rmat(8, 8.0);
  auto parts = graph::partition(g, 4, PartitionPolicy::BlockedEdgeCut);
  for (const auto& part : parts) {
    // Under an edge cut, every local edge's source is a master.
    for (graph::VertexId src = 0; src < part.num_local; ++src) {
      if (part.out_edges.degree(src) > 0) {
        EXPECT_TRUE(part.is_master(src))
            << "host " << part.host_id << " local " << src;
      }
    }
  }
}

TEST(Partition, IncomingEdgeCutKeepsInEdgesWithDestination) {
  graph::Csr g = graph::rmat(8, 8.0);
  auto parts = graph::partition(g, 4, PartitionPolicy::IncomingEdgeCut);
  for (const auto& part : parts) {
    // Every local edge's destination is a master: pushes never write
    // mirrors under this policy (the broadcast-only sync plan).
    for (graph::VertexId src = 0; src < part.num_local; ++src)
      part.out_edges.for_each_edge(src,
                                   [&](graph::VertexId dst, graph::Weight) {
                                     EXPECT_TRUE(part.is_master(dst));
                                   });
  }
}

TEST(Partition, CvcSpreadsOutEdgesAcrossHosts) {
  graph::Csr g = graph::kron(9, 16.0);
  auto parts = graph::partition(g, 4, PartitionPolicy::CartesianVertexCut);
  // Under a vertex cut some host must have out-edges rooted at a mirror.
  bool mirror_with_edges = false;
  for (const auto& part : parts)
    for (graph::VertexId v = part.num_masters; v < part.num_local; ++v)
      if (part.out_edges.degree(v) > 0) mirror_with_edges = true;
  EXPECT_TRUE(mirror_with_edges);
}

TEST(Partition, CvcGridFactorization) {
  EXPECT_EQ(graph::cvc_grid(4), (std::pair<int, int>{2, 2}));
  EXPECT_EQ(graph::cvc_grid(8), (std::pair<int, int>{2, 4}));
  EXPECT_EQ(graph::cvc_grid(6), (std::pair<int, int>{2, 3}));
  EXPECT_EQ(graph::cvc_grid(7), (std::pair<int, int>{1, 7}));
  EXPECT_EQ(graph::cvc_grid(16), (std::pair<int, int>{4, 4}));
}

TEST(Partition, SingleHostHasNoMirrors) {
  graph::Csr g = graph::rmat(8, 8.0);
  auto parts = graph::partition(g, 1, PartitionPolicy::CartesianVertexCut);
  EXPECT_EQ(parts[0].num_masters, parts[0].num_local);
  EXPECT_EQ(parts[0].num_masters, g.num_nodes());
}

TEST(Partition, EdgeBalanceIsReasonable) {
  graph::Csr g = graph::erdos_renyi(1u << 10, 1u << 14);
  auto parts = graph::partition(g, 4, PartitionPolicy::BlockedEdgeCut);
  const double ideal = static_cast<double>(g.num_edges()) / 4.0;
  for (const auto& part : parts) {
    EXPECT_LT(static_cast<double>(part.out_edges.num_edges()), 2.0 * ideal);
    EXPECT_GT(static_cast<double>(part.out_edges.num_edges()), 0.3 * ideal);
  }
}

TEST(Partition, SymmetrizeDoublesEdges) {
  graph::Csr g = graph::star(8, true);
  graph::Csr s = graph::symmetrize(g);
  EXPECT_EQ(s.num_edges(), 2 * g.num_edges());
  // Now the leaves have out-edges back to the center.
  for (graph::VertexId v = 1; v < 8; ++v) EXPECT_EQ(s.degree(v), 1u);
}

TEST(Partition, WeightsSurviveParitioning) {
  graph::GenOptions opt;
  opt.make_weights = true;
  graph::Csr g = graph::rmat(7, 8.0, opt);
  auto parts = graph::partition(g, 3, PartitionPolicy::OutgoingEdgeCut);
  std::uint64_t global_sum = 0;
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e)
    global_sum += g.edge_weight(e);
  std::uint64_t local_sum = 0;
  for (const auto& part : parts)
    for (graph::EdgeId e = 0; e < part.out_edges.num_edges(); ++e)
      local_sum += part.out_edges.edge_weight(e);
  EXPECT_EQ(local_sum, global_sum);
}

TEST(Partition, InEdgesAreTranspose) {
  graph::Csr g = graph::rmat(7, 8.0);
  auto parts = graph::partition(g, 2, PartitionPolicy::CartesianVertexCut);
  for (const auto& part : parts)
    EXPECT_EQ(part.in_edges.num_edges(), part.out_edges.num_edges());
}

}  // namespace
}  // namespace lcr
