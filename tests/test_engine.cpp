// Engine-level edge cases: degenerate phases, single host, phase racing,
// warmups, stats accounting.
#include <gtest/gtest.h>

#include "abelian/cluster.hpp"
#include "abelian/engine.hpp"
#include "abelian/sync.hpp"
#include "bench_support/runner.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"

namespace lcr {
namespace {

TEST(SyncPlan, PartitionAwareness) {
  using P = graph::PartitionPolicy;
  // Edge cuts with out-edges at the master: reduce only.
  EXPECT_TRUE(abelian::plan_push_monotone(P::BlockedEdgeCut).do_reduce);
  EXPECT_FALSE(abelian::plan_push_monotone(P::BlockedEdgeCut).do_broadcast);
  EXPECT_TRUE(abelian::plan_push_monotone(P::OutgoingEdgeCut).do_reduce);
  EXPECT_FALSE(abelian::plan_push_monotone(P::OutgoingEdgeCut).do_broadcast);
  // Incoming edge-cut: writes land on masters; broadcast only.
  EXPECT_FALSE(abelian::plan_push_monotone(P::IncomingEdgeCut).do_reduce);
  EXPECT_TRUE(abelian::plan_push_monotone(P::IncomingEdgeCut).do_broadcast);
  // Vertex cut: both.
  EXPECT_TRUE(abelian::plan_push_monotone(P::CartesianVertexCut).do_reduce);
  EXPECT_TRUE(
      abelian::plan_push_monotone(P::CartesianVertexCut).do_broadcast);
}

TEST(Engine, SingleHostSyncIsNoop) {
  graph::Csr g = graph::rmat(6, 4.0);
  auto parts = graph::partition(g, 1,
                                graph::PartitionPolicy::CartesianVertexCut);
  abelian::Cluster cluster(1, fabric::test_config());
  cluster.run([&](int) {
    abelian::EngineConfig cfg;
    abelian::HostEngine eng(cluster, parts[0], cfg);
    std::vector<std::uint32_t> labels(parts[0].num_local, 5);
    rt::ConcurrentBitset dirty(parts[0].num_local);
    // No peers: phases complete immediately, labels untouched.
    eng.sync_reduce<std::uint32_t>(
        labels.data(), dirty,
        [](std::uint32_t&, std::uint32_t) { return false; },
        [](graph::VertexId) {});
    eng.sync_broadcast<std::uint32_t>(labels.data(), dirty,
                                      [](graph::VertexId) {});
    for (auto v : labels) EXPECT_EQ(v, 5u);
    EXPECT_EQ(eng.stats().phases, 2u);
  });
}

TEST(Engine, EmptyDirtySyncStillCompletes) {
  // All hosts participate with zero dirty entries: header-only chunks must
  // still flow so phase completion is detected.
  constexpr int kHosts = 3;
  graph::Csr g = graph::erdos_renyi(64, 512);
  auto parts = graph::partition(g, kHosts,
                                graph::PartitionPolicy::CartesianVertexCut);
  abelian::Cluster cluster(kHosts, fabric::test_config());
  cluster.run([&](int h) {
    abelian::EngineConfig cfg;
    abelian::HostEngine eng(cluster, parts[static_cast<std::size_t>(h)],
                            cfg);
    std::vector<std::uint32_t> labels(
        parts[static_cast<std::size_t>(h)].num_local, 1);
    rt::ConcurrentBitset dirty(
        parts[static_cast<std::size_t>(h)].num_local);
    for (int round = 0; round < 5; ++round) {
      eng.sync_reduce<std::uint32_t>(
          labels.data(), dirty,
          [](std::uint32_t&, std::uint32_t) { return false; },
          [](graph::VertexId) {});
    }
    EXPECT_EQ(eng.stats().rounds, 0u);
    EXPECT_EQ(eng.stats().phases, 5u);
    cluster.oob_barrier();
  });
}

TEST(Engine, StatsCountBytesAndMessages) {
  constexpr int kHosts = 2;
  graph::Csr g = graph::erdos_renyi(128, 2048);
  auto parts = graph::partition(g, kHosts,
                                graph::PartitionPolicy::CartesianVertexCut);
  abelian::Cluster cluster(kHosts, fabric::test_config());
  cluster.run([&](int h) {
    abelian::EngineConfig cfg;
    abelian::HostEngine eng(cluster, parts[static_cast<std::size_t>(h)],
                            cfg);
    const auto& part = parts[static_cast<std::size_t>(h)];
    std::vector<std::uint32_t> labels(part.num_local, 9);
    rt::ConcurrentBitset dirty(part.num_local);
    for (graph::VertexId lid = part.num_masters; lid < part.num_local; ++lid)
      dirty.set(lid);
    eng.sync_reduce<std::uint32_t>(
        labels.data(), dirty,
        [](std::uint32_t&, std::uint32_t) { return false; },
        [](graph::VertexId) {});
    EXPECT_GT(eng.stats().messages_sent.load(), 0u);
    EXPECT_GT(eng.stats().bytes_sent.load(), 0u);
    EXPECT_GT(eng.stats().comm_s, 0.0);
    cluster.oob_barrier();
  });
}

TEST(Engine, OobAllreduceVariants) {
  constexpr int kHosts = 4;
  abelian::Cluster cluster(kHosts, fabric::test_config());
  cluster.run([&](int h) {
    for (int round = 0; round < 3; ++round) {
      EXPECT_EQ(cluster.oob_allreduce_sum(std::uint64_t(h + 1)), 10u);
      EXPECT_DOUBLE_EQ(cluster.oob_allreduce_sum(0.5 * (h + 1)), 5.0);
      EXPECT_DOUBLE_EQ(cluster.oob_allreduce_max(double(h)), 3.0);
    }
  });
}

TEST(Engine, RunnerCollectsWireCounters) {
  graph::Csr g = graph::rmat(6, 8.0);
  bench::RunSpec spec;
  spec.app = "bfs";
  spec.hosts = 3;
  spec.source = bench::choose_source(g);
  const auto result = bench::run_app(g, spec);
  EXPECT_GT(result.telemetry.at("fabric.sends"), 0u);
  EXPECT_GT(result.telemetry.at("fabric.bytes_tx"), 0u);
}

TEST(Engine, ClusterPropagatesHostExceptions) {
  abelian::Cluster cluster(2, fabric::test_config());
  EXPECT_THROW(cluster.run([&](int h) {
    cluster.oob_barrier();
    if (h == 1) throw std::runtime_error("host failure");
  }),
               std::runtime_error);
}

}  // namespace
}  // namespace lcr
