// Failure injection: resource exhaustion and constrained fabrics must not
// break correctness - LCI retries, MPI backlogs, RMA epochs throttle.
#include <gtest/gtest.h>

#include <optional>
#include <tuple>

#include "apps/reference.hpp"
#include "bench_support/runner.hpp"
#include "comm/serializer.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"

namespace lcr {
namespace {

class ConstrainedFabric : public ::testing::TestWithParam<comm::BackendKind> {
};

/// Tiny receive windows: senders constantly hit NoRxBuffer; results must
/// still be exact.
TEST_P(ConstrainedFabric, TinyRxWindowsStillCorrect) {
  graph::Csr g = graph::rmat(7, 8.0);
  fabric::FabricConfig fcfg = fabric::test_config();
  fcfg.default_rx_buffers = 8;

  bench::RunSpec spec;
  spec.app = "bfs";
  spec.backend = GetParam();
  spec.hosts = 4;
  spec.policy = graph::PartitionPolicy::CartesianVertexCut;
  spec.source = bench::choose_source(g);
  spec.fabric = fcfg;
  const auto result = bench::run_app(g, spec);
  EXPECT_EQ(result.labels_u32, apps::reference_bfs(g, spec.source));
}

/// Injection-rate throttling: senders hit Throttled; retried transparently.
TEST_P(ConstrainedFabric, ThrottledInjectionStillCorrect) {
  graph::Csr g = graph::erdos_renyi(128, 1024);
  fabric::FabricConfig fcfg = fabric::test_config();
  fcfg.injection_rate_pps = 200000.0;  // 200 packets/ms: slow but moving
  fcfg.injection_burst = 32;

  bench::RunSpec spec;
  spec.app = "cc";
  spec.backend = GetParam();
  spec.hosts = 3;
  spec.policy = graph::PartitionPolicy::OutgoingEdgeCut;
  spec.fabric = fcfg;
  graph::Csr sg = graph::symmetrize(g);
  const auto result = bench::run_app(sg, spec);
  EXPECT_EQ(result.labels_u32, apps::reference_cc(sg));
}

/// Nonzero wire latency delays delivery; phase completion must still hold.
TEST_P(ConstrainedFabric, WireLatencyStillCorrect) {
  graph::Csr g = graph::rmat(6, 8.0);
  fabric::FabricConfig fcfg = fabric::test_config();
  fcfg.wire_latency = std::chrono::microseconds(50);

  bench::RunSpec spec;
  spec.app = "sssp";
  spec.backend = GetParam();
  spec.hosts = 3;
  spec.policy = graph::PartitionPolicy::CartesianVertexCut;
  graph::GenOptions opt;
  opt.make_weights = true;
  graph::Csr wg = graph::rmat(6, 8.0, opt);
  spec.source = bench::choose_source(wg);
  spec.fabric = fcfg;
  const auto result = bench::run_app(wg, spec);
  EXPECT_EQ(result.labels_u32, apps::reference_sssp(wg, spec.source));
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ConstrainedFabric,
                         ::testing::Values(comm::BackendKind::Lci,
                                           comm::BackendKind::MpiProbe,
                                           comm::BackendKind::MpiRma),
                         [](const auto& info) {
                           switch (info.param) {
                             case comm::BackendKind::Lci: return "lci";
                             case comm::BackendKind::MpiProbe:
                               return "mpi_probe";
                             default: return "mpi_rma";
                           }
                         });

// ---------------------------------------------------------------------------
// Chaos suite: unreliable fabric (drop + corrupt + duplicate, fixed seed).
// The reliability channel must make every backend produce results identical
// to the sequential references.
// ---------------------------------------------------------------------------

fabric::FabricConfig lossy_config(double drop_rate) {
  fabric::FabricConfig fcfg = fabric::test_config();
  fcfg.fault.seed = 0xC0FFEE;
  fcfg.fault.drop_rate = drop_rate;
  fcfg.fault.corrupt_rate = 0.005;
  fcfg.fault.dup_rate = 0.01;
  return fcfg;
}

/// Params: backend x drop rate.
class LossyFabric : public ::testing::TestWithParam<
                        std::tuple<comm::BackendKind, double>> {
 protected:
  bench::RunSpec base_spec() const {
    bench::RunSpec spec;
    spec.backend = std::get<0>(GetParam());
    spec.hosts = 3;
    spec.policy = graph::PartitionPolicy::CartesianVertexCut;
    spec.fabric = lossy_config(std::get<1>(GetParam()));
    return spec;
  }
  /// The protocol must actually have been exercised, not bypassed. Whether
  /// any fault was rolled at all is probabilistic at 1% on tiny graphs, so
  /// loss + recovery is only asserted at the 5% rate.
  void expect_protocol_ran(const bench::RunResult& r) const {
    EXPECT_GT(r.telemetry.at("rel.data_tx"), 0u);
    EXPECT_GT(r.telemetry.at("rel.acks_rx"), 0u);
    if (std::get<1>(GetParam()) >= 0.05) {
      EXPECT_GT(r.telemetry.at("fault.dropped"), 0u);
      EXPECT_GT(r.telemetry.at("rel.retransmits"), 0u);
    }
  }
};

TEST_P(LossyFabric, BfsExact) {
  graph::Csr g = graph::rmat(6, 8.0);
  bench::RunSpec spec = base_spec();
  spec.app = "bfs";
  spec.source = bench::choose_source(g);
  const auto result = bench::run_app(g, spec);
  EXPECT_EQ(result.labels_u32, apps::reference_bfs(g, spec.source));
  expect_protocol_ran(result);
}

TEST_P(LossyFabric, CcExact) {
  graph::Csr g = graph::symmetrize(graph::rmat(6, 8.0));
  bench::RunSpec spec = base_spec();
  spec.app = "cc";
  spec.policy = graph::PartitionPolicy::OutgoingEdgeCut;
  const auto result = bench::run_app(g, spec);
  EXPECT_EQ(result.labels_u32, apps::reference_cc(g));
  expect_protocol_ran(result);
}

TEST_P(LossyFabric, SsspExact) {
  graph::GenOptions opt;
  opt.make_weights = true;
  graph::Csr g = graph::rmat(6, 8.0, opt);
  bench::RunSpec spec = base_spec();
  spec.app = "sssp";
  spec.source = bench::choose_source(g);
  const auto result = bench::run_app(g, spec);
  EXPECT_EQ(result.labels_u32, apps::reference_sssp(g, spec.source));
  expect_protocol_ran(result);
}

std::string lossy_name(
    const ::testing::TestParamInfo<std::tuple<comm::BackendKind, double>>&
        info) {
  std::string name;
  switch (std::get<0>(info.param)) {
    case comm::BackendKind::Lci: name = "lci"; break;
    case comm::BackendKind::MpiProbe: name = "mpi_probe"; break;
    default: name = "mpi_rma"; break;
  }
  name += std::get<1>(info.param) < 0.02 ? "_drop1" : "_drop5";
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    DropRates, LossyFabric,
    ::testing::Combine(::testing::Values(comm::BackendKind::Lci,
                                         comm::BackendKind::MpiProbe,
                                         comm::BackendKind::MpiRma),
                       ::testing::Values(0.01, 0.05)),
    lossy_name);

// ---------------------------------------------------------------------------
// Forced wire formats under chaos: corruption, drops and duplicates must be
// format-agnostic - the reliability channel retransmits leased chunk frames
// verbatim, and the unified scatter's header/payload validation has to hold
// for every encoding. Dense is the sensitive one (bitmap framing), so the
// chaos matrix re-runs with each format pinned programmatically (the
// LCR_WIRE_FORMAT env value is read once and cached, so setenv in-process
// would be a no-op here).
// ---------------------------------------------------------------------------

class ForcedFormatChaos
    : public ::testing::TestWithParam<
          std::tuple<comm::BackendKind, comm::WireFormat>> {
 protected:
  void SetUp() override {
    comm::set_wire_format_override(std::get<1>(GetParam()));
  }
  void TearDown() override { comm::set_wire_format_override(std::nullopt); }
};

TEST_P(ForcedFormatChaos, BfsExactUnderLoss) {
  graph::Csr g = graph::rmat(6, 8.0);
  bench::RunSpec spec;
  spec.app = "bfs";
  spec.backend = std::get<0>(GetParam());
  spec.hosts = 3;
  spec.policy = graph::PartitionPolicy::CartesianVertexCut;
  spec.fabric = lossy_config(0.05);
  spec.source = bench::choose_source(g);
  const auto result = bench::run_app(g, spec);
  EXPECT_EQ(result.labels_u32, apps::reference_bfs(g, spec.source));
  EXPECT_GT(result.telemetry.at("rel.retransmits"), 0u);
}

TEST_P(ForcedFormatChaos, CcExactUnderLoss) {
  graph::Csr g = graph::symmetrize(graph::rmat(6, 8.0));
  bench::RunSpec spec;
  spec.app = "cc";
  spec.backend = std::get<0>(GetParam());
  spec.hosts = 3;
  spec.policy = graph::PartitionPolicy::OutgoingEdgeCut;
  spec.fabric = lossy_config(0.05);
  const auto result = bench::run_app(g, spec);
  EXPECT_EQ(result.labels_u32, apps::reference_cc(g));
}

std::string forced_format_name(
    const ::testing::TestParamInfo<
        std::tuple<comm::BackendKind, comm::WireFormat>>& info) {
  std::string name;
  switch (std::get<0>(info.param)) {
    case comm::BackendKind::Lci: name = "lci"; break;
    case comm::BackendKind::MpiProbe: name = "mpi_probe"; break;
    default: name = "mpi_rma"; break;
  }
  switch (std::get<1>(info.param)) {
    case comm::WireFormat::Varint: name += "_varint"; break;
    case comm::WireFormat::Dense: name += "_dense"; break;
    default: name += "_sparse"; break;
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllBackendsAllFormats, ForcedFormatChaos,
    ::testing::Combine(::testing::Values(comm::BackendKind::Lci,
                                         comm::BackendKind::MpiProbe,
                                         comm::BackendKind::MpiRma),
                       ::testing::Values(comm::WireFormat::Sparse,
                                         comm::WireFormat::Varint,
                                         comm::WireFormat::Dense)),
    forced_format_name);

/// Single compute thread per host (comm thread still separate).
TEST(FailureModes, SingleComputeThreadWorks) {
  graph::Csr g = graph::rmat(6, 8.0);
  bench::RunSpec spec;
  spec.app = "bfs";
  spec.hosts = 2;
  spec.threads = 1;
  spec.source = bench::choose_source(g);
  const auto result = bench::run_app(g, spec);
  EXPECT_EQ(result.labels_u32, apps::reference_bfs(g, spec.source));
}

/// Gemini under a constrained fabric.
TEST(FailureModes, GeminiTinyRxWindowStillCorrect) {
  graph::Csr g = graph::rmat(6, 8.0);
  fabric::FabricConfig fcfg = fabric::test_config();
  fcfg.default_rx_buffers = 8;
  bench::RunSpec spec;
  spec.app = "bfs";
  spec.engine = "gemini";
  spec.hosts = 3;
  spec.source = bench::choose_source(g);
  spec.fabric = fcfg;
  const auto result = bench::run_app(g, spec);
  EXPECT_EQ(result.labels_u32, apps::reference_bfs(g, spec.source));
}

}  // namespace
}  // namespace lcr
