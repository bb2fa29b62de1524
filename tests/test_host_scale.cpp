// Scale-out correctness: the ULT host scheduler and the hierarchical OOB
// collectives at host counts far past the OS-thread path's practical limit
// (DESIGN.md §16).
//
//   * Exactness matrix: bfs/cc/pagerank x 3 backends x {os-threads@8,
//     ult@64} against the sequential references — scheduling hosts as
//     fibers must not change a single label.
//   * Kill-during-allreduce at 64 hosts: every survivor unwinds with
//     PeerFailedError, recovery resets the torn trees, and the same tree
//     objects complete collectives afterwards.
//   * 128-host acceptance runs (BFS exact, PageRank to the repo's 1e-9
//     reference bound) under LCR_HOST_SCHED-equivalent spec.host_sched,
//     with the sched.* scheduler telemetry present in the result.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>

#include "abelian/cluster.hpp"
#include "apps/reference.hpp"
#include "bench_support/runner.hpp"
#include "comm/membership.hpp"
#include "fabric/config.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "runtime/cpu_relax.hpp"

namespace lcr {
namespace {

graph::Csr make_graph(int scale, bool symmetric) {
  graph::GenOptions opt;
  opt.seed = 1234;
  opt.make_weights = true;
  opt.max_weight = 16;
  graph::Csr g = graph::rmat(scale, 8.0, opt);
  if (symmetric) g = graph::symmetrize(g);
  return g;
}

// ---------------------------------------------------------------------------
// Exactness matrix
// ---------------------------------------------------------------------------

struct ScaleCase {
  const char* app;  // bfs | cc | pagerank
  comm::BackendKind backend;
  const char* sched;  // "os" | "ult"
  int hosts;
};

std::string scale_case_name(const ::testing::TestParamInfo<ScaleCase>& info) {
  std::ostringstream os;
  os << info.param.app << "_";
  switch (info.param.backend) {
    case comm::BackendKind::Lci: os << "lci"; break;
    case comm::BackendKind::MpiProbe: os << "probe"; break;
    case comm::BackendKind::MpiRma: os << "rma"; break;
  }
  os << "_" << info.param.sched << "_h" << info.param.hosts;
  return os.str();
}

class HostScaleExactness : public ::testing::TestWithParam<ScaleCase> {};

TEST_P(HostScaleExactness, MatchesSequentialReference) {
  const ScaleCase& c = GetParam();
  const bool is_cc = std::string(c.app) == "cc";
  const graph::Csr g = make_graph(7, is_cc);

  bench::RunSpec spec;
  spec.app = c.app;
  spec.backend = c.backend;
  spec.hosts = c.hosts;
  spec.threads = 1;  // per-host compute; host-count is the scaled axis here
  spec.host_sched = c.sched;
  spec.source = bench::choose_source(g);
  spec.pagerank_iters = 10;

  const bench::RunResult result = bench::run_app(g, spec);

  if (std::string(c.app) == "bfs") {
    EXPECT_EQ(result.labels_u32, apps::reference_bfs(g, spec.source));
  } else if (is_cc) {
    EXPECT_EQ(result.labels_u32, apps::reference_cc(g));
  } else {
    const auto expected = apps::reference_pagerank(g, 0.85, 10, 0.0);
    ASSERT_EQ(result.labels_f64.size(), expected.size());
    for (std::size_t v = 0; v < expected.size(); ++v)
      EXPECT_NEAR(result.labels_f64[v], expected[v], 1e-9) << "vertex " << v;
  }
  EXPECT_GT(result.rounds, 0u);
  if (std::string(c.sched) == "ult") {
    // The fiber scheduler really ran: one fiber per host plus the engines'
    // comm fibers, and its stats were flushed into the telemetry registry.
    const auto it = result.telemetry.find("sched.spawns");
    ASSERT_NE(it, result.telemetry.end());
    EXPECT_GE(it->second, static_cast<std::uint64_t>(c.hosts));
  }
}

std::vector<ScaleCase> make_scale_cases() {
  std::vector<ScaleCase> cases;
  const char* apps[] = {"bfs", "cc", "pagerank"};
  const comm::BackendKind backends[] = {comm::BackendKind::Lci,
                                        comm::BackendKind::MpiProbe,
                                        comm::BackendKind::MpiRma};
  for (const char* app : apps)
    for (auto backend : backends) {
      cases.push_back({app, backend, "os", 8});
      cases.push_back({app, backend, "ult", 64});
    }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Matrix, HostScaleExactness,
                         ::testing::ValuesIn(make_scale_cases()),
                         scale_case_name);

// ---------------------------------------------------------------------------
// Kill during a tree allreduce at 64 hosts
// ---------------------------------------------------------------------------

class HostScaleFailure : public ::testing::TestWithParam<const char*> {};

TEST_P(HostScaleFailure, KillDuringAllreduceUnwindsAndTreesReset) {
  constexpr int kHosts = 64;
  constexpr int kVictim = 13;
  abelian::ClusterOptions copts;
  copts.host_sched = std::string(GetParam()) == "ult"
                         ? abelian::ClusterOptions::HostSched::kUlt
                         : abelian::ClusterOptions::HostSched::kOsThreads;
  copts.oob_coll = abelian::ClusterOptions::OobColl::kTree;
  abelian::Cluster cluster(kHosts, fabric::test_config(), copts);

  std::atomic<int> aborted{0};
  std::atomic<int> completed{0};
  std::atomic<int> post_ok{0};
  std::atomic<int> healthy_returned{0};
  cluster.run([&](int h) {
    // Healthy rounds first: the trees work at this scale before the kill.
    // No kill is pending yet, so an abort here is a failure - reported with
    // its host and round, and the host still joins the recovery below so
    // the rest of the cluster is not left waiting for it.
    bool healthy = true;
    for (int r = 0; r < 3 && healthy; ++r) {
      try {
        EXPECT_EQ(cluster.oob_allreduce_sum(std::uint64_t{1}),
                  static_cast<std::uint64_t>(kHosts));
      } catch (const comm::PeerFailedError& e) {
        ADD_FAILURE() << "host " << h << " aborted healthy round " << r
                      << ": " << e.what();
        healthy = false;
      }
    }
    healthy_returned.fetch_add(1);
    if (healthy) {
      try {
        // The victim dies right before contributing; no participant can
        // finish the op without the victim's subtree, so every survivor
        // blocks in a wave until the abort predicate fires. The kill waits
        // until every host has returned from the healthy rounds: a tree
        // allreduce completes at its root before every leaf is released,
        // so a victim that ran ahead would abort a slower host's third
        // healthy round instead of this one (DESIGN.md §16).
        if (h == kVictim) {
          rt::Backoff backoff;
          while (healthy_returned.load() < kHosts) backoff.pause();
          cluster.fabric().kill_now(kVictim);
        }
        (void)cluster.oob_allreduce_sum(static_cast<std::uint64_t>(h) + 1);
        completed.fetch_add(1);
      } catch (const comm::PeerFailedError&) {
        aborted.fetch_add(1);
      }
    }
    // Runner protocol: every host (victim included) rendezvous at the
    // recovery barrier; the leader revives the victim and resets the torn
    // OOB plane — including the half-flipped tree flags.
    cluster.recover(h);
    // The SAME tree objects must be reusable after reset: an allreduce and
    // a barrier with all 64 hosts participating again.
    const std::uint64_t sum =
        cluster.oob_allreduce_sum(static_cast<std::uint64_t>(h) + 1);
    if (sum == static_cast<std::uint64_t>(kHosts) * (kHosts + 1) / 2)
      post_ok.fetch_add(1);
    cluster.oob_barrier();
  });

  EXPECT_EQ(completed.load(), 0);
  EXPECT_EQ(aborted.load(), kHosts);
  EXPECT_EQ(post_ok.load(), kHosts);
  EXPECT_GE(cluster.membership().recoveries(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Sched, HostScaleFailure,
                         ::testing::Values("os", "ult"),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------------
// 128-host acceptance + a 32-host smoke case small enough for TSan CI
// ---------------------------------------------------------------------------

TEST(HostScaleAcceptance, Bfs128HostsUltExact) {
  const graph::Csr g = make_graph(8, false);
  bench::RunSpec spec;
  spec.app = "bfs";
  spec.hosts = 128;
  spec.threads = 1;
  spec.host_sched = "ult";
  spec.source = bench::choose_source(g);
  const bench::RunResult result = bench::run_app(g, spec);
  EXPECT_EQ(result.labels_u32, apps::reference_bfs(g, spec.source));
  ASSERT_NE(result.telemetry.find("sched.spawns"), result.telemetry.end());
  EXPECT_GE(result.telemetry.at("sched.spawns"), 128u);
  EXPECT_GT(result.telemetry.at("sched.switches"), 0u);
}

TEST(HostScaleAcceptance, Pagerank128HostsUlt) {
  const graph::Csr g = make_graph(8, false);
  bench::RunSpec spec;
  spec.app = "pagerank";
  spec.hosts = 128;
  spec.threads = 1;
  spec.host_sched = "ult";
  spec.pagerank_iters = 10;
  const bench::RunResult result = bench::run_app(g, spec);
  const auto expected = apps::reference_pagerank(g, 0.85, 10, 0.0);
  ASSERT_EQ(result.labels_f64.size(), expected.size());
  for (std::size_t v = 0; v < expected.size(); ++v)
    EXPECT_NEAR(result.labels_f64[v], expected[v], 1e-9) << "vertex " << v;
}

// CI's TSan host-scale step runs exactly this test: big enough to exercise
// fiber multiplexing and the trees, small enough for TSan's ~10x slowdown.
TEST(HostScaleSmoke, Bfs32HostsUltExact) {
  const graph::Csr g = make_graph(7, false);
  bench::RunSpec spec;
  spec.app = "bfs";
  spec.hosts = 32;
  spec.threads = 1;
  spec.host_sched = "ult";
  spec.source = bench::choose_source(g);
  const bench::RunResult result = bench::run_app(g, spec);
  EXPECT_EQ(result.labels_u32, apps::reference_bfs(g, spec.source));
  ASSERT_NE(result.telemetry.find("sched.spawns"), result.telemetry.end());
}

}  // namespace
}  // namespace lcr
