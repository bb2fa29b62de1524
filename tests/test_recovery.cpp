// Fail-stop recovery: checkpoint round-trips, membership/epoch semantics,
// and end-to-end kill-at-round-R recovery exactness (DESIGN.md §13).
//
// The end-to-end tests kill a simulated host mid-computation, let the
// cluster roll back to the last stable checkpoint, and require the final
// labels to be bitwise identical (EXPECT_EQ for the u32 apps) to the
// unfailed reference. Round-triggered kills are deterministic even on a
// lossy fabric; op-triggered kills are deterministic on a loss-free one,
// which the trace-determinism tests pin down.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <ostream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "apps/kcore.hpp"
#include "apps/reference.hpp"
#include "bench_support/runner.hpp"
#include "comm/membership.hpp"
#include "fabric/fabric.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "runtime/checkpoint.hpp"

namespace lcr {
namespace {

// ---------------------------------------------------------------------------
// CheckpointStore: bitwise round-trips, double buffering, stable_round.
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<std::uint8_t>(seed + i * 131u);
  return v;
}

TEST(CheckpointStore, RoundTripIsBitwiseExact) {
  rt::CheckpointStore store(2);
  const auto labels = pattern(4096, 7);
  const auto active = pattern(64, 91);
  store.save(1, 4,
             {{labels.data(), labels.size()}, {active.data(), active.size()}});

  std::vector<std::vector<std::uint8_t>> out;
  ASSERT_TRUE(store.load(1, 4, out));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], labels);
  EXPECT_EQ(out[1], active);
  EXPECT_EQ(store.latest_round(1), 4);
  store.quiesce();
  EXPECT_EQ(store.stats().saves.load(), 1u);
  EXPECT_EQ(store.stats().restores.load(), 1u);
}

TEST(CheckpointStore, DoubleBufferKeepsPreviousCheckpoint) {
  rt::CheckpointStore store(1);
  const auto a = pattern(512, 1);
  const auto b = pattern(512, 2);
  const auto c = pattern(512, 3);
  store.save(0, 0, {{a.data(), a.size()}});
  store.save(0, 8, {{b.data(), b.size()}});

  // Both generations are loadable: the rollback target survives the next
  // staging even if a host dies mid-save.
  std::vector<std::vector<std::uint8_t>> out;
  ASSERT_TRUE(store.load(0, 0, out));
  EXPECT_EQ(out[0], a);
  ASSERT_TRUE(store.load(0, 8, out));
  EXPECT_EQ(out[0], b);

  // A third save evicts the oldest generation only.
  store.save(0, 16, {{c.data(), c.size()}});
  EXPECT_FALSE(store.load(0, 0, out));
  ASSERT_TRUE(store.load(0, 8, out));
  EXPECT_EQ(out[0], b);
  ASSERT_TRUE(store.load(0, 16, out));
  EXPECT_EQ(out[0], c);
  EXPECT_EQ(store.latest_round(0), 16);
}

TEST(CheckpointStore, StableRoundIsClusterWideMinimum) {
  rt::CheckpointStore store(3);
  const auto x = pattern(64, 5);
  EXPECT_EQ(store.stable_round(), -1);

  store.save(0, 8, {{x.data(), x.size()}});
  store.save(2, 8, {{x.data(), x.size()}});
  // Host 1 has no checkpoint yet: no cluster-wide rollback target.
  EXPECT_EQ(store.stable_round(), -1);

  store.save(1, 4, {{x.data(), x.size()}});
  EXPECT_EQ(store.stable_round(), 4);
  store.save(1, 8, {{x.data(), x.size()}});
  EXPECT_EQ(store.stable_round(), 8);
}

TEST(CheckpointStore, LoadMissesUnknownRound) {
  rt::CheckpointStore store(1);
  const auto x = pattern(64, 9);
  store.save(0, 4, {{x.data(), x.size()}});
  std::vector<std::vector<std::uint8_t>> out;
  EXPECT_FALSE(store.load(0, 3, out));
  EXPECT_FALSE(store.load(0, 5, out));
}

// ---------------------------------------------------------------------------
// Membership: ground-truth kills vs detector suspicion, recovery rendezvous.
// ---------------------------------------------------------------------------

TEST(Membership, KillSetsDeadAndPendingAndLogs) {
  comm::Membership m(4);
  EXPECT_FALSE(m.failure_pending());
  for (std::size_t h = 0; h < 4; ++h)
    EXPECT_EQ(m.state(h), comm::PeerState::Alive);

  m.report_kill(2);
  EXPECT_TRUE(m.failure_pending());
  EXPECT_EQ(m.state(2), comm::PeerState::Dead);
  EXPECT_EQ(m.kills(), 1u);
  // The Kill trace entry is logged by the cluster's kill observer (which
  // knows the fabric epoch), not by report_kill itself.
  EXPECT_TRUE(m.events().empty());
}

TEST(Membership, SuspectUpgradesAliveButNeverOverridesDead) {
  comm::Membership m(3);
  m.report_suspect(0, 1);
  EXPECT_EQ(m.state(1), comm::PeerState::SuspectedDead);
  // Detector reports are timing-dependent and must not pollute the
  // deterministic recovery trace.
  EXPECT_TRUE(m.events().empty());
  EXPECT_FALSE(m.failure_pending());

  m.report_kill(1);
  EXPECT_EQ(m.state(1), comm::PeerState::Dead);
  m.report_suspect(2, 1);
  EXPECT_EQ(m.state(1), comm::PeerState::Dead);  // no demotion
}

TEST(Membership, RecoveryBarrierRunsLeaderFixExactlyOnce) {
  comm::Membership m(3);
  m.report_kill(1);
  ASSERT_TRUE(m.failure_pending());

  std::atomic<int> fixes{0};
  std::vector<std::thread> hosts;
  for (std::size_t h = 0; h < 3; ++h) {
    hosts.emplace_back([&, h] {
      m.recovery_barrier(h, [&] {
        fixes.fetch_add(1);
        m.mark_alive(1);
        m.clear_failure();
      });
    });
  }
  for (auto& t : hosts) t.join();

  EXPECT_EQ(fixes.load(), 1);
  EXPECT_FALSE(m.failure_pending());
  EXPECT_EQ(m.state(1), comm::PeerState::Alive);
  EXPECT_EQ(m.recoveries(), 1u);
}

// ---------------------------------------------------------------------------
// Fabric fail-stop semantics: Down to peers, black-holed victim sends,
// epoch fencing of stale completions.
// ---------------------------------------------------------------------------

fabric::MsgMeta small_meta(std::uint32_t size) {
  fabric::MsgMeta m;
  m.kind = 1;
  m.tag = 0;
  m.size = size;
  return m;
}

TEST(FabricFailStop, PeersSeeDownAndVictimIsBlackHoled) {
  fabric::Fabric fab(3, fabric::test_config());
  std::vector<std::byte> slab(fab.config().mtu * 4);
  for (std::size_t i = 0; i < 2; ++i)
    fab.endpoint(0).post_rx({slab.data() + i * fab.config().mtu,
                             fab.config().mtu, i});
  for (std::size_t i = 2; i < 4; ++i)
    fab.endpoint(2).post_rx({slab.data() + i * fab.config().mtu,
                             fab.config().mtu, i});

  int observed = -1;
  fab.set_kill_observer([&](fabric::Rank r) { observed = static_cast<int>(r); });
  fab.kill_now(1);
  EXPECT_FALSE(fab.is_alive(1));
  EXPECT_EQ(observed, 1);

  // Sends TO the dead host fail fast instead of timing out.
  const char byte = 'x';
  EXPECT_EQ(fab.post_send(0, 1, &byte, small_meta(1)),
            fabric::PostResult::Down);
  EXPECT_GE(fab.endpoint(1).stats().host_kills.load(), 1u);

  // Sends FROM the dead host report Ok but deliver nothing: a fail-stop
  // host cannot observe its own death through errors.
  EXPECT_EQ(fab.post_send(1, 2, &byte, small_meta(1)),
            fabric::PostResult::Ok);
  EXPECT_FALSE(fab.endpoint(2).poll_cq().has_value());
}

TEST(FabricFailStop, ReviveBumpsEpochAndFencesStaleCompletions) {
  fabric::Fabric fab(2, fabric::test_config());
  std::vector<std::byte> slab(fab.config().mtu * 2);
  for (std::size_t i = 0; i < 2; ++i)
    fab.endpoint(1).post_rx({slab.data() + i * fab.config().mtu,
                             fab.config().mtu, i});

  // A completion stamped under epoch 0 that is only polled after a revive
  // (epoch 1) is a ghost from the pre-failure world: it must be fenced.
  const char byte = 'x';
  ASSERT_EQ(fab.post_send(0, 1, &byte, small_meta(1)), fabric::PostResult::Ok);
  const std::uint32_t before = fab.epoch();
  fab.kill_now(0);
  fab.revive(0);
  EXPECT_EQ(fab.epoch(), before + 1);
  EXPECT_TRUE(fab.is_alive(0));

  EXPECT_FALSE(fab.endpoint(1).poll_cq().has_value());
  EXPECT_GE(fab.endpoint(1).stats().epoch_fenced.load(), 1u);

  // Post-revive traffic flows normally under the new epoch.
  ASSERT_EQ(fab.post_send(0, 1, &byte, small_meta(1)), fabric::PostResult::Ok);
  EXPECT_TRUE(fab.endpoint(1).poll_cq().has_value());
}

// The kill-at-op trigger counts first transmissions only. A retransmit of
// the same sequence number (a late ack times out and re-sends data even on
// a loss-free fabric) must not advance the count, or the kill point would
// move with the machine's load.
TEST(FabricFailStop, KillAtOpCountsFirstTransmissionsOnly) {
  fabric::FabricConfig cfg = fabric::test_config();
  cfg.fault.kill_host = 0;
  cfg.fault.kill_at_op = 2;
  fabric::Fabric fab(2, cfg);
  std::vector<std::byte> slab(fab.config().mtu * 4);
  for (std::size_t i = 0; i < 4; ++i)
    fab.endpoint(1).post_rx({slab.data() + i * fab.config().mtu,
                             fab.config().mtu, i});

  const char byte = 'x';
  fabric::MsgMeta m = small_meta(1);
  m.rel = fabric::kRelSeq;
  m.seq = 0;
  ASSERT_EQ(fab.post_send(0, 1, &byte, m), fabric::PostResult::Ok);
  m.attempt = 1;  // retransmit of seq 0
  ASSERT_EQ(fab.post_send(0, 1, &byte, m), fabric::PostResult::Ok);
  EXPECT_TRUE(fab.is_alive(0)) << "a retransmit advanced the kill count";
  m.seq = 1;
  m.attempt = 0;
  ASSERT_EQ(fab.post_send(0, 1, &byte, m), fabric::PostResult::Ok);
  EXPECT_FALSE(fab.is_alive(0));
  EXPECT_EQ(fab.killed_at_op(), 2u);
}

TEST(FaultProfileFormat, ToStringIncludesKillSchedule) {
  fabric::FaultProfile fp;
  fp.kill_host = 2;
  fp.kill_at_op = 64;
  fp.kill_at_round = 5;
  const std::string s = fabric::to_string(fp);
  EXPECT_NE(s.find("kill=2"), std::string::npos) << s;
  EXPECT_NE(s.find("@op64"), std::string::npos) << s;
  EXPECT_NE(s.find("@round5"), std::string::npos) << s;
}

// ---------------------------------------------------------------------------
// End-to-end: kill host 1 at round R, recover from the last checkpoint,
// converge to the exact unfailed answer.
// ---------------------------------------------------------------------------

void expect_recovered(const bench::RunResult& r, std::int64_t rollback) {
  EXPECT_EQ(r.kills, 1u);
  EXPECT_GE(r.recoveries, 1u);
  EXPECT_EQ(r.rollback_round, rollback);
  ASSERT_GE(r.recovery_events.size(), 3u);
  EXPECT_EQ(r.recovery_events.front().kind, comm::RecoveryEvent::Kind::Kill);
  EXPECT_EQ(r.recovery_events.front().host, 1);
  EXPECT_EQ(r.recovery_events.back().kind,
            comm::RecoveryEvent::Kind::Readmit);
  EXPECT_EQ(r.recovery_events.back().host, 1);
  EXPECT_GE(r.recovery_events.back().epoch, 1u);
}

std::string backend_name(comm::BackendKind kind) {
  switch (kind) {
    case comm::BackendKind::Lci: return "lci";
    case comm::BackendKind::MpiProbe: return "mpi_probe";
    default: return "mpi_rma";
  }
}

bench::RunSpec killed_spec(comm::BackendKind backend, std::int64_t kill_round,
                           std::int64_t interval) {
  bench::RunSpec spec;
  spec.backend = backend;
  spec.hosts = 4;
  spec.ckpt_interval = interval;
  spec.fabric.fault.kill_host = 1;
  spec.fabric.fault.kill_at_round = kill_round;
  return spec;
}

// Every runner app recovers through the one round driver, so a scheduled
// kill must fire in each of them on every engine and backend it runs on.
// Per app: the input, where the kill lands and the checkpoint it must roll
// back to. A kill at a checkpoint round dies before staging that round's
// snapshot, so the cluster falls back to the previous one.
struct AppKillPlan {
  int scale;
  bool symmetric;  // cc / labelprop / kcore are defined on undirected graphs
  bool weighted;
  graph::PartitionPolicy policy;
  std::int64_t kill_round;
  std::int64_t interval;
  std::int64_t rollback;
};

AppKillPlan kill_plan(const std::string& app) {
  using P = graph::PartitionPolicy;
  if (app == "bfs") return {6, false, false, P::CartesianVertexCut, 1, 2, 0};
  if (app == "cc") return {6, true, false, P::OutgoingEdgeCut, 1, 2, 0};
  if (app == "labelprop") return {7, true, false, P::OutgoingEdgeCut, 2, 2, 0};
  if (app == "sssp") return {6, false, true, P::CartesianVertexCut, 4, 2, 2};
  if (app == "pagerank")
    return {6, false, false, P::CartesianVertexCut, 7, 4, 4};
  // kcore peels and sssp_delta settles one bucket per round; unit weights
  // make every BFS level its own bucket, so both run several rounds.
  if (app == "kcore") return {7, true, false, P::CartesianVertexCut, 2, 1, 1};
  return {7, true, false, P::CartesianVertexCut, 2, 1, 1};  // sssp_delta
}

struct KillCase {
  const char* app;
  const char* engine;
  comm::BackendKind backend;
};

void PrintTo(const KillCase& c, std::ostream* os) {
  *os << c.app << " on " << c.engine << " x " << backend_name(c.backend);
}

class KillAtRound : public ::testing::TestWithParam<KillCase> {};

TEST_P(KillAtRound, RecoversExactly) {
  const KillCase& c = GetParam();
  const std::string app = c.app;
  const AppKillPlan plan = kill_plan(app);
  graph::GenOptions gen;
  gen.make_weights = plan.weighted;
  graph::Csr g = graph::rmat(plan.scale, 8.0, gen);
  if (plan.symmetric) g = graph::symmetrize(g);

  bench::RunSpec spec = killed_spec(c.backend, plan.kill_round, plan.interval);
  spec.app = app;
  spec.engine = c.engine;
  spec.policy = plan.policy;
  spec.source = bench::choose_source(g);
  spec.pagerank_iters = 16;
  const auto result = bench::run_app(g, spec);

  if (app == "pagerank") {
    const auto expected = apps::reference_pagerank(g, 0.85, 16, 0.0);
    ASSERT_EQ(result.labels_f64.size(), expected.size());
    for (std::size_t v = 0; v < expected.size(); ++v)
      EXPECT_NEAR(result.labels_f64[v], expected[v], 1e-9) << "vertex " << v;
  } else if (app == "bfs") {
    EXPECT_EQ(result.labels_u32, apps::reference_bfs(g, spec.source));
  } else if (app == "cc") {
    EXPECT_EQ(result.labels_u32, apps::reference_cc(g));
  } else if (app == "labelprop") {
    EXPECT_EQ(result.labels_u32, apps::reference_labelprop(g));
  } else if (app == "kcore") {
    EXPECT_EQ(result.labels_u32, apps::reference_kcore(g, spec.kcore_k));
  } else {  // sssp, sssp_delta
    EXPECT_EQ(result.labels_u32, apps::reference_sssp(g, spec.source));
  }
  expect_recovered(result, plan.rollback);
}

std::vector<KillCase> kill_cases() {
  std::vector<KillCase> cases;
  for (const char* app : {"bfs", "cc", "labelprop", "sssp", "pagerank",
                          "kcore", "sssp_delta"})
    for (const auto backend :
         {comm::BackendKind::Lci, comm::BackendKind::MpiProbe,
          comm::BackendKind::MpiRma})
      cases.push_back({app, "abelian", backend});
  // Gemini runs on LCI and on its THREAD_MULTIPLE MPI backend
  // (BackendKind::MpiProbe); kcore and sssp_delta are Abelian-only.
  for (const char* app : {"bfs", "cc", "labelprop", "sssp", "pagerank"})
    for (const auto backend :
         {comm::BackendKind::Lci, comm::BackendKind::MpiProbe})
      cases.push_back({app, "gemini", backend});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, KillAtRound, ::testing::ValuesIn(kill_cases()),
    [](const ::testing::TestParamInfo<KillCase>& info) {
      return std::string(info.param.app) + "_" + info.param.engine + "_" +
             backend_name(info.param.backend);
    });

// ---------------------------------------------------------------------------
// Kill-mid-put (DESIGN.md §15): with direct writes forced, every dense round
// has one-sided puts in flight when the victim dies. The rebuilt engine
// re-registers fresh regions under a new generation; retransmissions of
// pre-kill puts must be fenced by the token/generation ladder, never
// double-applied into the reborn registration. Early / mid / late kill
// rounds cover puts dying before, during and after the first checkpoint.
// ---------------------------------------------------------------------------

class RecoveryFabric : public ::testing::TestWithParam<comm::BackendKind> {};

TEST_P(RecoveryFabric, DirectWriteBfsEarlyKillRecoversExactly) {
  graph::Csr g = graph::rmat(6, 8.0);
  bench::RunSpec spec =
      killed_spec(GetParam(), /*kill_round=*/1, /*interval=*/2);
  spec.app = "bfs";
  spec.direct_write = comm::DirectWriteMode::Forced;
  spec.source = bench::choose_source(g);
  const auto result = bench::run_app(g, spec);
  EXPECT_EQ(result.labels_u32, apps::reference_bfs(g, spec.source));
  expect_recovered(result, /*rollback=*/0);
  const auto it = result.telemetry.find("sync.direct_sends");
  EXPECT_GT(it == result.telemetry.end() ? 0 : it->second, 0u)
      << "forced direct writes never engaged across the kill";
}

TEST_P(RecoveryFabric, DirectWritePagerankMidKillRecoversExactly) {
  graph::Csr g = graph::rmat(6, 8.0);
  bench::RunSpec spec =
      killed_spec(GetParam(), /*kill_round=*/7, /*interval=*/4);
  spec.app = "pagerank";
  spec.direct_write = comm::DirectWriteMode::Forced;
  spec.pagerank_iters = 16;
  const auto result = bench::run_app(g, spec);
  const auto expected = apps::reference_pagerank(g, 0.85, 16, 0.0);
  ASSERT_EQ(result.labels_f64.size(), expected.size());
  for (std::size_t v = 0; v < expected.size(); ++v)
    EXPECT_NEAR(result.labels_f64[v], expected[v], 1e-9)
        << "vertex " << v << " (stale put applied across the epoch?)";
  expect_recovered(result, /*rollback=*/4);
  const auto it = result.telemetry.find("sync.direct_sends");
  EXPECT_GT(it == result.telemetry.end() ? 0 : it->second, 0u);
}

TEST_P(RecoveryFabric, DirectWriteSsspLateKillRecoversExactly) {
  graph::GenOptions opt;
  opt.make_weights = true;
  graph::Csr g = graph::rmat(6, 8.0, opt);
  bench::RunSpec spec =
      killed_spec(GetParam(), /*kill_round=*/4, /*interval=*/2);
  spec.app = "sssp";
  spec.direct_write = comm::DirectWriteMode::Forced;
  spec.source = bench::choose_source(g);
  const auto result = bench::run_app(g, spec);
  EXPECT_EQ(result.labels_u32, apps::reference_sssp(g, spec.source));
  // The victim dies before staging its round-4 snapshot, so the cluster
  // falls back to the round-2 checkpoint.
  expect_recovered(result, /*rollback=*/2);
  const auto it = result.telemetry.find("sync.direct_sends");
  EXPECT_GT(it == result.telemetry.end() ? 0 : it->second, 0u);
}

/// A kill before the first checkpoint interval elapses forces a full
/// restart (stable_round == -1): recovery must still converge exactly.
TEST_P(RecoveryFabric, KillBeforeAnyCheckpointForcesCleanRestart) {
  graph::Csr g = graph::rmat(6, 8.0);
  bench::RunSpec spec =
      killed_spec(GetParam(), /*kill_round=*/1, /*interval=*/0);
  spec.app = "bfs";
  spec.source = bench::choose_source(g);
  const auto result = bench::run_app(g, spec);
  EXPECT_EQ(result.labels_u32, apps::reference_bfs(g, spec.source));
  EXPECT_EQ(result.kills, 1u);
  EXPECT_GE(result.recoveries, 1u);
  EXPECT_EQ(result.rollback_round, -1);
}

INSTANTIATE_TEST_SUITE_P(Backends, RecoveryFabric,
                         ::testing::Values(comm::BackendKind::Lci,
                                           comm::BackendKind::MpiProbe,
                                           comm::BackendKind::MpiRma),
                         [](const auto& info) {
                           return backend_name(info.param);
                         });

// ---------------------------------------------------------------------------
// Determinism: same seed -> same kill point, same recovery trace, same
// labels. Round triggers are deterministic always; op triggers on a
// loss-free fabric.
// ---------------------------------------------------------------------------

TEST(RecoveryDeterminism, RoundKillTraceIsIdenticalAcrossRuns) {
  graph::Csr g = graph::symmetrize(graph::rmat(6, 8.0));
  bench::RunSpec spec;
  spec.app = "cc";
  spec.policy = graph::PartitionPolicy::OutgoingEdgeCut;
  spec.hosts = 4;
  spec.ckpt_interval = 2;
  spec.fabric.fault.kill_host = 2;
  spec.fabric.fault.kill_at_round = 1;

  const auto a = bench::run_app(g, spec);
  const auto b = bench::run_app(g, spec);
  EXPECT_EQ(a.kills, 1u);
  EXPECT_EQ(a.kills, b.kills);
  EXPECT_EQ(a.rollback_round, b.rollback_round);
  EXPECT_EQ(a.recovery_events, b.recovery_events);
  EXPECT_EQ(a.labels_u32, b.labels_u32);
  EXPECT_EQ(a.labels_u32, apps::reference_cc(g));
}

TEST(RecoveryDeterminism, OpKillSameSeedSameKillPointLossFree) {
  graph::Csr g = graph::rmat(6, 8.0);
  bench::RunSpec spec;
  spec.app = "bfs";
  spec.hosts = 4;
  spec.ckpt_interval = 2;
  spec.source = bench::choose_source(g);
  spec.fabric.fault.seed = 0xDEAD5EED;
  spec.fabric.fault.kill_host = 1;
  spec.fabric.fault.kill_at_op = 12;

  const auto a = bench::run_app(g, spec);
  const auto b = bench::run_app(g, spec);
  EXPECT_EQ(a.kills, 1u);
  EXPECT_EQ(a.killed_at_op, 12u);
  EXPECT_EQ(a.killed_at_op, b.killed_at_op);
  EXPECT_EQ(a.recovery_events, b.recovery_events);
  EXPECT_EQ(a.labels_u32, b.labels_u32);
  EXPECT_EQ(a.labels_u32, apps::reference_bfs(g, spec.source));
}

// A survivor that reaches a checkpoint boundary after the kill still
// stages it: host 3 burns 50 ms at the top of every round, so the victim
// dies at its op 12 in round 0 before host 3 has reached round 0's
// boundary. The rollback round must not depend on that lag.
TEST(RecoveryDeterminism, OpKillRollbackIgnoresSurvivorLag) {
  graph::Csr g = graph::rmat(6, 8.0);
  bench::RunSpec spec;
  spec.app = "bfs";
  spec.hosts = 4;
  spec.ckpt_interval = 2;
  spec.source = bench::choose_source(g);
  spec.fabric.fault.seed = 0xDEAD5EED;
  spec.fabric.fault.kill_host = 1;
  spec.fabric.fault.kill_at_op = 12;
  spec.fabric.fault.slow_host = 3;
  spec.fabric.fault.slow_round_ns = 50'000'000;

  const auto r = bench::run_app(g, spec);
  EXPECT_EQ(r.kills, 1u);
  EXPECT_EQ(r.killed_at_op, 12u);
  EXPECT_EQ(r.rollback_round, 0);
  EXPECT_EQ(r.labels_u32, apps::reference_bfs(g, spec.source));
}

// ---------------------------------------------------------------------------
// Chaos matrix: kill at {early, mid, late} rounds x every backend, under 1%
// packet loss + corruption + duplication on top of the fail-stop kill. The
// fixed-iteration pagerank guarantees every kill round is reached.
// ---------------------------------------------------------------------------

class KillChaosMatrix
    : public ::testing::TestWithParam<std::tuple<comm::BackendKind, int>> {};

TEST_P(KillChaosMatrix, PagerankRecoversExactlyUnderLoss) {
  graph::Csr g = graph::rmat(6, 8.0);
  bench::RunSpec spec;
  spec.app = "pagerank";
  spec.backend = std::get<0>(GetParam());
  spec.hosts = 4;
  spec.pagerank_iters = 12;
  spec.ckpt_interval = 4;
  spec.fabric.fault.seed = 0xC0FFEE;
  spec.fabric.fault.drop_rate = 0.01;
  spec.fabric.fault.corrupt_rate = 0.005;
  spec.fabric.fault.dup_rate = 0.01;
  spec.fabric.fault.kill_host = 1;
  spec.fabric.fault.kill_at_round = std::get<1>(GetParam());
  const auto result = bench::run_app(g, spec);

  const auto expected = apps::reference_pagerank(g, 0.85, 12, 0.0);
  ASSERT_EQ(result.labels_f64.size(), expected.size());
  for (std::size_t v = 0; v < expected.size(); ++v)
    EXPECT_NEAR(result.labels_f64[v], expected[v], 1e-9) << "vertex " << v;
  EXPECT_EQ(result.kills, 1u);
  EXPECT_GE(result.recoveries, 1u);
}

std::string chaos_name(
    const ::testing::TestParamInfo<std::tuple<comm::BackendKind, int>>& info) {
  std::string name;
  switch (std::get<0>(info.param)) {
    case comm::BackendKind::Lci: name = "lci"; break;
    case comm::BackendKind::MpiProbe: name = "mpi_probe"; break;
    default: name = "mpi_rma"; break;
  }
  switch (std::get<1>(info.param)) {
    case 1: name += "_early"; break;
    case 5: name += "_mid"; break;
    default: name += "_late"; break;
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    HostKill, KillChaosMatrix,
    ::testing::Combine(::testing::Values(comm::BackendKind::Lci,
                                         comm::BackendKind::MpiProbe,
                                         comm::BackendKind::MpiRma),
                       ::testing::Values(1, 5, 9)),
    chaos_name);

}  // namespace
}  // namespace lcr
