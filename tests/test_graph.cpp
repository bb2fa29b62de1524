// Tests for CSR graphs, generators and statistics.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <string>

#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/stats.hpp"

namespace lcr {
namespace {

/// A file under the test temp dir that no concurrently running copy of this
/// binary writes (the name carries the pid), removed when the test ends.
struct TempFile {
  TempFile(const std::string& stem, const std::string& ext)
      : path(::testing::TempDir() + "/" + stem + "_" +
             std::to_string(::getpid()) + ext) {}
  ~TempFile() { std::remove(path.c_str()); }
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;
  const std::string path;
};

TEST(Csr, BuildsFromEdgeList) {
  graph::EdgeList edges{{0, 1}, {0, 2}, {1, 2}, {2, 0}};
  graph::Csr g = graph::Csr::from_edges(3, edges);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_EQ(g.degree(2), 1u);
  std::set<graph::VertexId> n0;
  g.for_each_edge(0, [&](graph::VertexId v, graph::Weight) { n0.insert(v); });
  EXPECT_EQ(n0, (std::set<graph::VertexId>{1, 2}));
}

TEST(Csr, WeightsFollowEdges) {
  graph::EdgeList edges{{0, 1}, {1, 0}};
  std::vector<graph::Weight> weights{5, 9};
  graph::Csr g = graph::Csr::from_edges(2, edges, weights);
  ASSERT_TRUE(g.has_weights());
  g.for_each_edge(0, [&](graph::VertexId v, graph::Weight w) {
    EXPECT_EQ(v, 1u);
    EXPECT_EQ(w, 5u);
  });
  g.for_each_edge(1, [&](graph::VertexId v, graph::Weight w) {
    EXPECT_EQ(v, 0u);
    EXPECT_EQ(w, 9u);
  });
}

TEST(Csr, UnweightedDefaultsToOne) {
  graph::Csr g = graph::path(3, false);
  g.for_each_edge(0, [&](graph::VertexId, graph::Weight w) {
    EXPECT_EQ(w, 1u);
  });
}

TEST(Csr, ReversePreservesEdgesAndWeights) {
  graph::EdgeList edges{{0, 1}, {0, 2}, {2, 1}};
  std::vector<graph::Weight> weights{3, 4, 5};
  graph::Csr g = graph::Csr::from_edges(3, edges, weights);
  graph::Csr r = g.reverse();
  EXPECT_EQ(r.num_edges(), 3u);
  EXPECT_EQ(r.degree(1), 2u);  // in-edges of 1: from 0 (w3) and 2 (w5)
  std::set<std::pair<graph::VertexId, graph::Weight>> in1;
  r.for_each_edge(1, [&](graph::VertexId v, graph::Weight w) {
    in1.insert({v, w});
  });
  EXPECT_EQ(in1, (std::set<std::pair<graph::VertexId, graph::Weight>>{
                     {0, 3}, {2, 5}}));
}

TEST(Csr, EmptyGraph) {
  graph::Csr g = graph::Csr::from_edges(0, {});
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Generators, DeterministicBySeed) {
  graph::GenOptions opt;
  opt.seed = 99;
  graph::Csr a = graph::rmat(8, 8.0, opt);
  graph::Csr b = graph::rmat(8, 8.0, opt);
  EXPECT_EQ(a.targets(), b.targets());
  EXPECT_EQ(a.offsets(), b.offsets());
  opt.seed = 100;
  graph::Csr c = graph::rmat(8, 8.0, opt);
  EXPECT_NE(a.targets(), c.targets());
}

TEST(Generators, RmatHasPowerLawSkew) {
  graph::Csr g = graph::rmat(12, 16.0);
  graph::GraphStats s = graph::compute_stats(g);
  EXPECT_EQ(s.num_nodes, 1u << 12);
  EXPECT_GT(s.num_edges, 60000u);
  // Hubs: max degree far beyond the average (power-law signature).
  EXPECT_GT(static_cast<double>(s.max_out_degree), 10.0 * s.avg_degree);
}

TEST(Generators, KronDenserThanRmat) {
  graph::Csr k = graph::kron(10, 32.0);
  graph::Csr r = graph::rmat(10, 16.0);
  EXPECT_GT(k.num_edges(), r.num_edges());
}

TEST(Generators, WebHasExtremeInDegreeSkew) {
  graph::Csr g = graph::web(12, 16.0);
  graph::GraphStats s = graph::compute_stats(g);
  // clueweb12 signature (Table I): max in-degree >> max out-degree.
  EXPECT_GT(s.max_in_degree, 4 * s.max_out_degree);
}

TEST(Generators, SelfLoopsRemovedByDefault) {
  graph::Csr g = graph::erdos_renyi(64, 2048);
  for (graph::VertexId v = 0; v < g.num_nodes(); ++v)
    g.for_each_edge(v, [&](graph::VertexId dst, graph::Weight) {
      EXPECT_NE(dst, v);
    });
}

TEST(Generators, WeightsInRange) {
  graph::GenOptions opt;
  opt.make_weights = true;
  opt.max_weight = 10;
  graph::Csr g = graph::rmat(8, 8.0, opt);
  ASSERT_TRUE(g.has_weights());
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_GE(g.edge_weight(e), 1u);
    EXPECT_LE(g.edge_weight(e), 10u);
  }
}

TEST(Generators, SmallDeterministicShapes) {
  graph::Csr p = graph::path(5, true);
  EXPECT_EQ(p.num_edges(), 8u);
  graph::Csr s = graph::star(5);
  EXPECT_EQ(s.num_edges(), 4u);
  EXPECT_EQ(s.degree(0), 4u);
  graph::Csr c = graph::complete(4);
  EXPECT_EQ(c.num_edges(), 12u);
  graph::Csr grid = graph::grid2d(3, 4);
  EXPECT_EQ(grid.num_nodes(), 12u);
  EXPECT_EQ(grid.num_edges(), 2u * (3 * 3 + 2 * 4));
}

TEST(Generators, ByNameDispatch) {
  EXPECT_EQ(graph::by_name("rmat", 6).num_nodes(), 64u);
  EXPECT_EQ(graph::by_name("kron", 6).num_nodes(), 64u);
  EXPECT_EQ(graph::by_name("web", 6).num_nodes(), 64u);
  EXPECT_EQ(graph::by_name("er", 6).num_nodes(), 64u);
  EXPECT_THROW(graph::by_name("nope", 6), std::invalid_argument);
}

TEST(GraphIo, EdgeListRoundTrip) {
  graph::GenOptions opt;
  opt.make_weights = true;
  graph::Csr g = graph::rmat(7, 8.0, opt);
  const TempFile tmp("lcr_edges", ".txt");
  const std::string& path = tmp.path;
  graph::save_edge_list(g, path);
  // Isolated vertices don't appear in an edge list; pass the count as hint.
  graph::Csr loaded = graph::load_edge_list(path, g.num_nodes());
  EXPECT_EQ(loaded.num_nodes(), g.num_nodes());
  EXPECT_EQ(loaded.offsets(), g.offsets());
  EXPECT_EQ(loaded.targets(), g.targets());
  EXPECT_EQ(loaded.weights(), g.weights());
}

TEST(GraphIo, EdgeListUnweightedAndComments) {
  const TempFile tmp("lcr_small", ".txt");
  const std::string& path = tmp.path;
  {
    std::ofstream out(path);
    out << "# comment\n% another\n0 1\n1 2\n\n2 0\n";
  }
  graph::Csr g = graph::load_edge_list(path);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_FALSE(g.has_weights());
}

TEST(GraphIo, EdgeListNodeHint) {
  const TempFile tmp("lcr_hint", ".txt");
  const std::string& path = tmp.path;
  {
    std::ofstream out(path);
    out << "0 1\n";
  }
  EXPECT_EQ(graph::load_edge_list(path, 10).num_nodes(), 10u);
}

TEST(GraphIo, EdgeListParseErrorThrows) {
  const TempFile tmp("lcr_bad", ".txt");
  const std::string& path = tmp.path;
  {
    std::ofstream out(path);
    out << "0 one\n";
  }
  EXPECT_THROW(graph::load_edge_list(path), std::runtime_error);
  EXPECT_THROW(graph::load_edge_list("/nonexistent/x.txt"),
               std::runtime_error);
}

TEST(GraphIo, BinaryRoundTrip) {
  graph::GenOptions opt;
  opt.make_weights = true;
  graph::Csr g = graph::kron(8, 16.0, opt);
  const TempFile tmp("lcr_graph", ".lcrb");
  const std::string& path = tmp.path;
  graph::save_binary(g, path);
  graph::Csr loaded = graph::load_binary(path);
  EXPECT_EQ(loaded.num_nodes(), g.num_nodes());
  EXPECT_EQ(loaded.offsets(), g.offsets());
  EXPECT_EQ(loaded.targets(), g.targets());
  EXPECT_EQ(loaded.weights(), g.weights());
}

TEST(GraphIo, BinaryRejectsGarbage) {
  const TempFile tmp("lcr_garbage", ".lcrb");
  const std::string& path = tmp.path;
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a graph";
  }
  EXPECT_THROW(graph::load_binary(path), std::runtime_error);
}

TEST(Stats, FormatContainsTableFields) {
  graph::Csr g = graph::star(10);
  const std::string s = graph::format_stats("star", graph::compute_stats(g));
  EXPECT_NE(s.find("|V|=10"), std::string::npos);
  EXPECT_NE(s.find("|E|=9"), std::string::npos);
  EXPECT_NE(s.find("maxDout=9"), std::string::npos);
}

}  // namespace
}  // namespace lcr
