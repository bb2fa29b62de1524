// Parallel receive-side apply pipeline (DESIGN.md §12): deterministic
// results across apply-worker counts, sliced decode under loss, the bounded
// out-of-order stash, and exactly-once settling of mid-decode rejects.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <thread>
#include <tuple>
#include <vector>

#include "abelian/cluster.hpp"
#include "abelian/engine.hpp"
#include "apps/atomic_ops.hpp"
#include "apps/reference.hpp"
#include "bench_support/runner.hpp"
#include "comm/serializer.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"

namespace lcr {
namespace {

std::string backend_name(comm::BackendKind kind) {
  switch (kind) {
    case comm::BackendKind::Lci: return "lci";
    case comm::BackendKind::MpiProbe: return "mpi_probe";
    default: return "mpi_rma";
  }
}

// ---------------------------------------------------------------------------
// Results must not depend on how many threads run the receive-side applies:
// the destination-shard lock serializes same-lid combines, so 1 / 2 / 4
// apply workers all land on the sequential references exactly.
// ---------------------------------------------------------------------------

class ApplyWorkers : public ::testing::TestWithParam<
                         std::tuple<comm::BackendKind, std::size_t>> {
 protected:
  bench::RunSpec base_spec() const {
    bench::RunSpec spec;
    spec.backend = std::get<0>(GetParam());
    spec.hosts = 3;
    spec.threads = 4;
    spec.apply_workers = std::get<1>(GetParam());
    spec.apply_slice_records = 16;  // slice even the tiny test chunks
    spec.policy = graph::PartitionPolicy::CartesianVertexCut;
    return spec;
  }
};

TEST_P(ApplyWorkers, BfsDeterministic) {
  graph::Csr g = graph::rmat(6, 8.0);
  bench::RunSpec spec = base_spec();
  spec.app = "bfs";
  spec.source = bench::choose_source(g);
  const auto result = bench::run_app(g, spec);
  EXPECT_EQ(result.labels_u32, apps::reference_bfs(g, spec.source));
}

TEST_P(ApplyWorkers, CcDeterministic) {
  graph::Csr g = graph::symmetrize(graph::rmat(6, 8.0));
  bench::RunSpec spec = base_spec();
  spec.app = "cc";
  const auto result = bench::run_app(g, spec);
  EXPECT_EQ(result.labels_u32, apps::reference_cc(g));
}

TEST_P(ApplyWorkers, SsspDeterministic) {
  graph::GenOptions opt;
  opt.make_weights = true;
  graph::Csr g = graph::rmat(6, 8.0, opt);
  bench::RunSpec spec = base_spec();
  spec.app = "sssp";
  spec.source = bench::choose_source(g);
  const auto result = bench::run_app(g, spec);
  EXPECT_EQ(result.labels_u32, apps::reference_sssp(g, spec.source));
}

INSTANTIATE_TEST_SUITE_P(
    BackendsByWorkers, ApplyWorkers,
    ::testing::Combine(::testing::Values(comm::BackendKind::Lci,
                                         comm::BackendKind::MpiProbe,
                                         comm::BackendKind::MpiRma),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{4})),
    [](const auto& info) {
      return backend_name(std::get<0>(info.param)) + "_w" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Unreliable fabric x full apply parallelism: retransmitted / duplicated /
// reordered chunks flow through the sliced concurrent apply path and results
// stay exact. RMA's whole-list single chunks exercise the widest slices.
// ---------------------------------------------------------------------------

class LossyParallelApply
    : public ::testing::TestWithParam<comm::BackendKind> {};

TEST_P(LossyParallelApply, BfsExactUnderLoss) {
  graph::Csr g = graph::rmat(6, 8.0);
  fabric::FabricConfig fcfg = fabric::test_config();
  fcfg.fault.seed = 0xAB1E;
  fcfg.fault.drop_rate = 0.05;
  fcfg.fault.dup_rate = 0.01;

  bench::RunSpec spec;
  spec.app = "bfs";
  spec.backend = GetParam();
  spec.hosts = 3;
  spec.threads = 4;
  spec.apply_workers = 4;
  spec.apply_slice_records = 16;
  spec.policy = graph::PartitionPolicy::CartesianVertexCut;
  spec.source = bench::choose_source(g);
  spec.fabric = fcfg;
  const auto result = bench::run_app(g, spec);
  EXPECT_EQ(result.labels_u32, apps::reference_bfs(g, spec.source));
  EXPECT_GT(result.telemetry.at("fault.dropped"), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, LossyParallelApply,
                         ::testing::Values(comm::BackendKind::Lci,
                                           comm::BackendKind::MpiProbe,
                                           comm::BackendKind::MpiRma),
                         [](const auto& info) {
                           return backend_name(info.param);
                         });

// ---------------------------------------------------------------------------
// Bounded out-of-order stash: future-phase messages beyond the configured
// cap are dropped and counted instead of growing the stash without bound.
// ---------------------------------------------------------------------------

TEST(ApplyPipeline, StashBoundedAndCounted) {
  constexpr int kHosts = 2;
  graph::Csr g = graph::rmat(6, 8.0);
  auto parts = graph::partition(g, kHosts,
                                graph::PartitionPolicy::CartesianVertexCut);
  abelian::Cluster cluster(kHosts, fabric::test_config());
  cluster.run([&](int h) {
    const auto& part = parts[static_cast<std::size_t>(h)];
    abelian::EngineConfig cfg;  // LCI: thread-safe sends from the test body
    cfg.stash_cap = 4;
    abelian::HostEngine eng(cluster, part, cfg);

    if (h == 1) {
      // Ten valid header-only chunks for a phase two ahead of anything the
      // receiver will run: in-window, so each is a stash candidate.
      for (int i = 0; i < 10; ++i) {
        comm::ChunkHeader header;
        header.phase_id = 2;
        header.payload_bytes = 0;
        header.chunk_idx = static_cast<std::uint16_t>(i);
        header.num_chunks = 0;  // streaming data chunk
        header.format = static_cast<std::uint8_t>(comm::WireFormat::Raw);
        header.finalize();
        comm::BufferLease lease =
            eng.backend().acquire(0, comm::kChunkHeaderBytes);
        std::memcpy(lease.data, &header, sizeof(header));
        while (!eng.backend().commit(0, lease, comm::kChunkHeaderBytes)) {
        }
      }
    }
    cluster.oob_barrier();
    // Let the fabric deliver the crafted frames before the real phase so
    // host 0 drains them ahead of the phase-0 tail.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    std::vector<std::uint32_t> labels(part.num_local, 7);
    rt::ConcurrentBitset dirty(part.num_local);
    for (graph::VertexId lid = part.num_masters; lid < part.num_local; ++lid)
      dirty.set(lid);
    eng.sync_reduce<std::uint32_t>(
        labels.data(), dirty,
        [](std::uint32_t& current, std::uint32_t incoming) {
          return apps::plain_min(current, incoming);
        },
        [](graph::VertexId) {});

    if (h == 0) {
      EXPECT_EQ(eng.stats().stash_peak.load(), 4u);
      EXPECT_EQ(eng.stats().stash_drops.load(), 6u);
    } else {
      EXPECT_EQ(eng.stats().stash_drops.load(), 0u);
    }
    cluster.oob_barrier();
  });
}

/// Messages claiming a phase beyond the stash window are dropped outright,
/// even with room in the stash (fuzzed / corrupted phase ids).
TEST(ApplyPipeline, BeyondWindowDroppedNotStashed) {
  constexpr int kHosts = 2;
  graph::Csr g = graph::rmat(6, 8.0);
  auto parts = graph::partition(g, kHosts,
                                graph::PartitionPolicy::CartesianVertexCut);
  abelian::Cluster cluster(kHosts, fabric::test_config());
  cluster.run([&](int h) {
    const auto& part = parts[static_cast<std::size_t>(h)];
    abelian::EngineConfig cfg;
    abelian::HostEngine eng(cluster, part, cfg);

    if (h == 1) {
      comm::ChunkHeader header;
      header.phase_id = comm::kStashPhaseWindow + 1;  // out of window
      header.payload_bytes = 0;
      header.num_chunks = 0;
      header.format = static_cast<std::uint8_t>(comm::WireFormat::Raw);
      header.finalize();
      comm::BufferLease lease =
          eng.backend().acquire(0, comm::kChunkHeaderBytes);
      std::memcpy(lease.data, &header, sizeof(header));
      while (!eng.backend().commit(0, lease, comm::kChunkHeaderBytes)) {
      }
    }
    cluster.oob_barrier();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    std::vector<std::uint32_t> labels(part.num_local, 7);
    rt::ConcurrentBitset dirty(part.num_local);
    for (graph::VertexId lid = part.num_masters; lid < part.num_local; ++lid)
      dirty.set(lid);
    eng.sync_reduce<std::uint32_t>(
        labels.data(), dirty,
        [](std::uint32_t& current, std::uint32_t incoming) {
          return apps::plain_min(current, incoming);
        },
        [](graph::VertexId) {});

    if (h == 0) {
      EXPECT_EQ(eng.stats().stash_peak.load(), 0u);
      EXPECT_EQ(eng.stats().stash_drops.load(), 1u);
    }
    cluster.oob_barrier();
  });
}

// ---------------------------------------------------------------------------
// Exactly-once settling of a chunk rejected mid-decode while its slices run
// on four workers: decode_rejects counts one, the phase still completes, and
// the message is released once (ASan would flag a double release's
// use-after-free in the backend pools).
// ---------------------------------------------------------------------------

TEST(ApplyPipeline, MidDecodeRejectSettlesOnce) {
  constexpr int kHosts = 2;
  constexpr std::uint32_t kRecords = 256;
  graph::Csr g = graph::rmat(6, 8.0);
  auto parts = graph::partition(g, kHosts,
                                graph::PartitionPolicy::CartesianVertexCut);
  abelian::Cluster cluster(kHosts, fabric::test_config());
  cluster.run([&](int h) {
    const auto& part = parts[static_cast<std::size_t>(h)];
    abelian::EngineConfig cfg;
    if (h == 1) {
      cfg.compute_threads = 4;
      cfg.apply_workers = 4;
      cfg.apply_slice_records = 16;  // 256 records -> 4 slices of 64
    }
    abelian::HostEngine eng(cluster, part, cfg);

    // Shared-list identities are unused by this test - only the per-peer
    // sizes matter - so fill the plans with consecutive lids.
    graph::CompressedPlan::Builder send_b(kHosts);
    graph::CompressedPlan::Builder recv_b(kHosts);
    for (std::uint32_t i = 0; i < kRecords; ++i) {
      if (h == 0)
        send_b.append(1, i);
      else
        recv_b.append(0, i);
    }
    const graph::CompressedPlan send_plan = std::move(send_b).build();
    const graph::CompressedPlan recv_plan = std::move(recv_b).build();

    std::vector<std::uint32_t> received(kRecords, 0);
    eng.execute_phase(
        /*pattern=*/0, comm::record_bytes<std::uint32_t>(), send_plan,
        recv_plan,
        [&](int, std::uint32_t lo, std::uint32_t hi,
            const abelian::HostEngine::ReserveFn& reserve)
            -> comm::EncodedChunk {
          // Sparse records covering [lo, hi), except record 10 claims a
          // relative position outside the span - malformed mid-payload.
          const std::uint32_t span = hi - lo;
          std::byte* dst = reserve(comm::sparse_bytes(span, 4));
          constexpr std::size_t rec = comm::record_bytes<std::uint32_t>();
          for (std::uint32_t i = 0; i < span; ++i) {
            const std::uint32_t rel = i == 10 ? span + 5 : i;
            const std::uint32_t value = i + 1;
            std::memcpy(dst + i * rec, &rel, sizeof(rel));
            std::memcpy(dst + i * rec + sizeof(rel), &value, sizeof(value));
          }
          comm::EncodedChunk enc;
          enc.format = comm::WireFormat::Sparse;
          enc.bytes = span * rec;
          enc.records = span;
          return enc;
        },
        [&](int, const comm::ChunkHeader& header, const std::byte* payload,
            std::uint32_t rec_lo, std::uint32_t rec_hi) {
          comm::DecodeCursor cur;
          if (!comm::seek_record<std::uint32_t>(header, kRecords, rec_lo,
                                                cur))
            return false;
          const std::size_t budget =
              rec_hi == abelian::HostEngine::kAllChunkRecords
                  ? comm::kAllRecords
                  : static_cast<std::size_t>(rec_hi - rec_lo);
          const auto status = comm::decode_chunk_resume<std::uint32_t>(
              header, payload, kRecords, cur, budget,
              [&](std::uint32_t pos, const std::uint32_t& value) {
                received[pos] = value;  // slices cover disjoint positions
              });
          return status != comm::DecodeStatus::Error;
        });

    if (h == 1) {
      EXPECT_EQ(eng.stats().decode_rejects.load(), 1u);
      EXPECT_EQ(eng.stats().phases, 1u);
      // Slices other than the malformed one decoded their records.
      EXPECT_EQ(received[100], 101u);
      EXPECT_EQ(received[200], 201u);
    }
    cluster.oob_barrier();
  });
}

}  // namespace
}  // namespace lcr
