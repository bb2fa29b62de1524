// One-sided direct-write sync path: adversarial RMA correctness suite
// (DESIGN.md §15).
//
// Layers under test, bottom up:
//   1. RegionBook - the validation ladder every emulated put walks (token /
//      generation / bounds), driven standalone and by a seeded fuzzer that
//      interleaves register/put/deregister/revive against a reference model.
//   2. DirectDirectory - the PMI-stand-in rkey exchange: publish / lookup /
//      generation-guarded retract.
//   3. Backend direct primitives - register/put/poll on all three backends,
//      including oversized puts and stale-descriptor puts after a
//      release+re-register (the reuse shape a revive produces).
//   4. Engine exactness - 5 apps x 3 backends x {off, auto, forced} against
//      sequential references, then the same under a lossy fabric (1% / 5%
//      drop + dup) proving a dropped-then-retransmitted put never
//      double-applies and never lands in a stale-epoch region.
//   5. Kill-mid-put: a host dies while puts are in flight; after revive the
//      old registration is gone and a retransmitted stale put must die on
//      the token/generation fence instead of scribbling on the reborn
//      host's fresh region (ASan turns any miss into a hard failure).
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "apps/reference.hpp"
#include "bench_support/runner.hpp"
#include "comm/backend.hpp"
#include "comm/direct.hpp"
#include "comm/lci_backend.hpp"
#include "fabric/fabric.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "lci/completion.hpp"
#include "lci/one_sided.hpp"

namespace lcr {
namespace {

// This suite drives the direct-write mode explicitly through RunSpec; a CI
// job exporting LCR_DIRECT_WRITE (the chaos step forces it for the other
// suites) must not override the Off/Auto assertions below.
const bool g_env_cleared = [] {
  unsetenv("LCR_DIRECT_WRITE");
  return true;
}();

// ---------------------------------------------------------------------------
// 1. RegionBook: the validation ladder, standalone.
// ---------------------------------------------------------------------------

TEST(RegionBook, ValidationLadderVerdicts) {
  lci::RegionBook book;
  std::vector<std::byte> buf(256);
  lci::CompletionCounter counter;
  ASSERT_TRUE(book.add(7, buf.data(), buf.size(), /*generation=*/3, &counter));
  EXPECT_FALSE(book.add(7, buf.data(), buf.size(), 3))
      << "live tokens must never be reusable";
  EXPECT_EQ(book.live(), 1u);

  // Ok: in-bounds put with the matching generation bumps the counter.
  EXPECT_EQ(book.note_put(7, 0, 256, 3), lci::RegionBook::Verdict::Ok);
  EXPECT_EQ(book.note_put(7, 128, 128, 3), lci::RegionBook::Verdict::Ok);
  EXPECT_EQ(counter.done(), 2u);
  EXPECT_EQ(book.accepted(), 2u);

  // The three rejection causes.
  EXPECT_EQ(book.note_put(8, 0, 16, 3),
            lci::RegionBook::Verdict::UnknownToken);
  EXPECT_EQ(book.note_put(7, 0, 16, 2),
            lci::RegionBook::Verdict::StaleGeneration);
  EXPECT_EQ(book.note_put(7, 128, 129, 3),
            lci::RegionBook::Verdict::OutOfBounds);
  EXPECT_EQ(book.note_put(7, 257, 1, 3),
            lci::RegionBook::Verdict::OutOfBounds);
  EXPECT_EQ(book.rejected(), 4u);
  EXPECT_EQ(counter.done(), 2u) << "rejected puts must not signal";

  ASSERT_TRUE(book.remove(7));
  EXPECT_FALSE(book.remove(7));
  EXPECT_EQ(book.live(), 0u);
  EXPECT_EQ(book.note_put(7, 0, 16, 3),
            lci::RegionBook::Verdict::UnknownToken)
      << "a removed token is indistinguishable from a never-registered one";
}

// Seeded fuzzer: random interleavings of register / put / deregister /
// revive (deregister + re-register with a fresh generation, same buffer -
// exactly what recovery does) against a shadow model. The book must agree
// with the model on every verdict and never accept a put against a dead or
// stale registration.
TEST(RegionBook, SeededFuzzAgainstReferenceModel) {
  struct Shadow {
    std::size_t size = 0;
    std::uint32_t generation = 0;
    bool live = false;
  };
  for (std::uint32_t seed : {1u, 7u, 42u, 1234u}) {
    lci::RegionBook book;
    std::mt19937 rng(seed);
    std::vector<std::byte> slab(4096);
    std::vector<Shadow> shadows(8);
    std::uint64_t next_token = 1;
    std::vector<std::uint64_t> token_of(8, 0);
    std::uint32_t next_gen = 1;
    std::uint64_t expect_accepted = 0;
    std::uint64_t expect_rejected = 0;

    for (int step = 0; step < 2000; ++step) {
      const std::size_t slot = rng() % shadows.size();
      Shadow& sh = shadows[slot];
      switch (rng() % 4) {
        case 0: {  // register (only when the slot is free)
          if (sh.live) break;
          sh.size = 64 + rng() % 448;
          sh.generation = next_gen++;
          sh.live = true;
          token_of[slot] = next_token++;
          ASSERT_TRUE(book.add(token_of[slot], slab.data(), sh.size,
                               sh.generation));
          break;
        }
        case 1: {  // put: random offset/bytes/generation, model the verdict
          const std::size_t offset = rng() % 600;
          const std::size_t bytes = 1 + rng() % 600;
          // Mostly the live generation, sometimes a stale or future one.
          const std::uint32_t claim =
              rng() % 4 == 0 ? 1 + rng() % next_gen : sh.generation;
          const auto verdict =
              book.note_put(token_of[slot], offset, bytes, claim);
          lci::RegionBook::Verdict want;
          if (!sh.live || token_of[slot] == 0)
            want = lci::RegionBook::Verdict::UnknownToken;
          else if (claim != sh.generation)
            want = lci::RegionBook::Verdict::StaleGeneration;
          else if (offset + bytes > sh.size)
            want = lci::RegionBook::Verdict::OutOfBounds;
          else
            want = lci::RegionBook::Verdict::Ok;
          ASSERT_EQ(verdict, want)
              << "seed " << seed << " step " << step << " slot " << slot;
          if (want == lci::RegionBook::Verdict::Ok)
            ++expect_accepted;
          else
            ++expect_rejected;
          break;
        }
        case 2: {  // deregister
          if (!sh.live) break;
          ASSERT_TRUE(book.remove(token_of[slot]));
          sh.live = false;
          break;
        }
        case 3: {  // revive: retire the registration, re-expose the same
                   // buffer under a fresh token AND a fresh generation
          if (!sh.live) break;
          ASSERT_TRUE(book.remove(token_of[slot]));
          sh.size = 64 + rng() % 448;
          sh.generation = next_gen++;
          token_of[slot] = next_token++;
          ASSERT_TRUE(book.add(token_of[slot], slab.data(), sh.size,
                               sh.generation));
          break;
        }
      }
    }
    EXPECT_EQ(book.accepted(), expect_accepted) << "seed " << seed;
    EXPECT_EQ(book.rejected(), expect_rejected) << "seed " << seed;
    std::size_t live = 0;
    for (const Shadow& sh : shadows) live += sh.live ? 1 : 0;
    EXPECT_EQ(book.live(), live) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// 2. DirectDirectory: publish / lookup / generation-guarded retract.
// ---------------------------------------------------------------------------

TEST(DirectDirectory, PublishLookupRetract) {
  comm::DirectDirectory dir;
  const std::uint32_t g1 = dir.next_generation();
  const std::uint32_t g2 = dir.next_generation();
  EXPECT_NE(g1, 0u) << "generation 0 means 'never registered'";
  EXPECT_NE(g1, g2);

  comm::DirectRegion r;
  r.token = 11;
  r.capacity = 512;
  r.generation = g1;
  dir.publish(/*target=*/2, /*src=*/0, /*pattern_key=*/77, r);

  comm::DirectRegion out;
  ASSERT_TRUE(dir.lookup(2, 0, 77, out));
  EXPECT_EQ(out.token, 11u);
  EXPECT_EQ(out.generation, g1);
  EXPECT_FALSE(dir.lookup(2, 1, 77, out)) << "keyed by (target, src, key)";
  EXPECT_FALSE(dir.lookup(2, 0, 78, out));

  // A retract claiming the wrong generation must not remove a newer
  // registration (the exact race: old engine's teardown vs the reborn
  // engine's publish after a revive).
  comm::DirectRegion fresh = r;
  fresh.generation = g2;
  dir.publish(2, 0, 77, fresh);
  dir.retract(2, 0, 77, g1);  // stale retract: loses
  ASSERT_TRUE(dir.lookup(2, 0, 77, out));
  EXPECT_EQ(out.generation, g2);
  dir.retract(2, 0, 77, g2);  // current retract: wins
  EXPECT_FALSE(dir.lookup(2, 0, 77, out));

  // retract_target clears every region a dead host had published.
  dir.publish(3, 0, 1, r);
  dir.publish(3, 1, 2, fresh);
  dir.publish(4, 0, 1, r);
  dir.retract_target(3);
  EXPECT_FALSE(dir.lookup(3, 0, 1, out));
  EXPECT_FALSE(dir.lookup(3, 1, 2, out));
  EXPECT_TRUE(dir.lookup(4, 0, 1, out));
}

// ---------------------------------------------------------------------------
// 3. Backend direct primitives, all three backends.
// ---------------------------------------------------------------------------

class BackendDirect : public ::testing::TestWithParam<comm::BackendKind> {
 protected:
  static void pump(comm::Backend& a, comm::Backend& b, int spins = 200) {
    for (int i = 0; i < spins; ++i) {
      a.progress();
      b.progress();
    }
  }
};

TEST_P(BackendDirect, RegisterPutSignalDeliversPayload) {
  fabric::Fabric fab(2, fabric::test_config());
  auto tx = comm::make_backend(GetParam(), fab, 0, comm::BackendOptions{});
  auto rx = comm::make_backend(GetParam(), fab, 1, comm::BackendOptions{});
  ASSERT_TRUE(rx->supports_direct_write());

  std::vector<std::byte> region_mem(512, std::byte{0});
  const comm::DirectRegion region =
      rx->register_direct_region(/*src=*/0, region_mem.data(),
                                 region_mem.size(), /*generation=*/9);
  ASSERT_TRUE(region.valid());
  EXPECT_EQ(region.generation, 9u);

  std::vector<std::byte> payload(300);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::byte>(i * 31 + 7);

  comm::DirectPutStatus st = comm::DirectPutStatus::Retry;
  for (int i = 0; i < 1000 && st == comm::DirectPutStatus::Retry; ++i) {
    st = tx->direct_put(1, region, payload.data(), payload.size(),
                        /*phase_id=*/5, /*pattern_key=*/77);
    pump(*tx, *rx, 2);
  }
  ASSERT_EQ(st, comm::DirectPutStatus::Ok);

  comm::DirectSignal sig;
  bool got = false;
  for (int i = 0; i < 2000 && !got; ++i) {
    pump(*tx, *rx, 2);
    got = rx->poll_direct(sig);
  }
  ASSERT_TRUE(got) << "signal never arrived";
  EXPECT_EQ(sig.src, 0);
  EXPECT_EQ(sig.phase_id, 5u);
  EXPECT_EQ(sig.pattern_key, 77u);
  EXPECT_EQ(sig.generation, 9u);
  EXPECT_EQ(sig.bytes, payload.size());
  EXPECT_EQ(std::memcmp(region_mem.data(), payload.data(), payload.size()),
            0)
      << "payload must land at the region base";
  rx->release_direct_region(0, region);
}

TEST_P(BackendDirect, OversizedPutIsRejectedBeforeTouchingTheWire) {
  fabric::Fabric fab(2, fabric::test_config());
  auto tx = comm::make_backend(GetParam(), fab, 0, comm::BackendOptions{});
  auto rx = comm::make_backend(GetParam(), fab, 1, comm::BackendOptions{});

  std::vector<std::byte> region_mem(64);
  const comm::DirectRegion region = rx->register_direct_region(
      0, region_mem.data(), region_mem.size(), 1);
  ASSERT_TRUE(region.valid());

  std::vector<std::byte> oversized(65, std::byte{0xAB});
  EXPECT_EQ(tx->direct_put(1, region, oversized.data(), oversized.size(), 0,
                           0),
            comm::DirectPutStatus::Unavailable);
  // An unregistered (invalid) descriptor is equally unusable.
  EXPECT_EQ(tx->direct_put(1, comm::DirectRegion{}, oversized.data(), 16, 0,
                           0),
            comm::DirectPutStatus::Unavailable);
  comm::DirectSignal sig;
  pump(*tx, *rx);
  EXPECT_FALSE(rx->poll_direct(sig));
  rx->release_direct_region(0, region);
}

TEST_P(BackendDirect, StalePutAfterReleaseNeverLandsInReusedRegion) {
  fabric::Fabric fab(2, fabric::test_config());
  auto tx = comm::make_backend(GetParam(), fab, 0, comm::BackendOptions{});
  auto rx = comm::make_backend(GetParam(), fab, 1, comm::BackendOptions{});

  std::vector<std::byte> region_mem(256, std::byte{0});
  const comm::DirectRegion old_region = rx->register_direct_region(
      0, region_mem.data(), region_mem.size(), /*generation=*/1);
  ASSERT_TRUE(old_region.valid());
  rx->release_direct_region(0, old_region);

  // The SAME buffer is re-registered under a fresh generation - the memory
  // reuse a recovery epoch produces. A put built against the retired
  // descriptor must not scribble on it.
  const comm::DirectRegion fresh = rx->register_direct_region(
      0, region_mem.data(), region_mem.size(), /*generation=*/2);
  ASSERT_TRUE(fresh.valid());
  EXPECT_NE(fresh.token, old_region.token) << "tokens must never be reused";

  std::vector<std::byte> stale_payload(128, std::byte{0xEE});
  const comm::DirectPutStatus st =
      tx->direct_put(1, old_region, stale_payload.data(),
                     stale_payload.size(), 3, 7);
  pump(*tx, *rx);
  comm::DirectSignal sig;
  EXPECT_FALSE(rx->poll_direct(sig))
      << "stale-descriptor put must not signal";
  for (std::size_t i = 0; i < region_mem.size(); ++i)
    ASSERT_EQ(region_mem[i], std::byte{0}) << "stale put landed at byte " << i;
  // The sender either learned the put is dead (Unavailable: fabric-backed
  // paths see the stale rkey) or fired blind (Ok: the MPI emulation has no
  // sender-side rkey check and the receiver's RegionBook rejects instead).
  EXPECT_TRUE(st == comm::DirectPutStatus::Unavailable ||
              st == comm::DirectPutStatus::Ok);
  rx->release_direct_region(0, fresh);
}

std::string backend_suffix(
    const ::testing::TestParamInfo<comm::BackendKind>& info) {
  switch (info.param) {
    case comm::BackendKind::Lci: return "lci";
    case comm::BackendKind::MpiProbe: return "mpi_probe";
    default: return "mpi_rma";
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, BackendDirect,
                         ::testing::Values(comm::BackendKind::Lci,
                                           comm::BackendKind::MpiProbe,
                                           comm::BackendKind::MpiRma),
                         backend_suffix);

// ---------------------------------------------------------------------------
// 4a. Engine exactness: app x backend x mode against sequential references.
// ---------------------------------------------------------------------------

class DirectWriteExactness
    : public ::testing::TestWithParam<
          std::tuple<std::string, comm::BackendKind, comm::DirectWriteMode>> {
};

TEST_P(DirectWriteExactness, MatchesSequentialReference) {
  const auto& [app, backend, mode] = GetParam();
  graph::Csr base = graph::rmat(7, 8.0, graph::GenOptions{});
  graph::GenOptions wopt;
  wopt.make_weights = true;
  if (app == "sssp") base = graph::rmat(7, 8.0, wopt);
  const graph::Csr g =
      (app == "cc" || app == "labelprop") ? graph::symmetrize(base) : base;

  bench::RunSpec spec;
  spec.app = app;
  spec.backend = backend;
  spec.hosts = 4;
  spec.threads = 2;
  spec.direct_write = mode;
  spec.source = bench::choose_source(g);
  spec.pagerank_iters = 10;
  if (app == "cc" || app == "labelprop")
    spec.policy = graph::PartitionPolicy::OutgoingEdgeCut;
  const bench::RunResult r = bench::run_app(g, spec);

  if (app == "bfs") {
    EXPECT_EQ(r.labels_u32, apps::reference_bfs(g, spec.source));
  } else if (app == "cc") {
    EXPECT_EQ(r.labels_u32, apps::reference_cc(g));
  } else if (app == "sssp") {
    EXPECT_EQ(r.labels_u32, apps::reference_sssp(g, spec.source));
  } else if (app == "labelprop") {
    EXPECT_EQ(r.labels_u32, apps::reference_labelprop(g));
  } else {  // pagerank
    const auto expected = apps::reference_pagerank(g, 0.85, 10, 0.0);
    ASSERT_EQ(r.labels_f64.size(), expected.size());
    for (std::size_t v = 0; v < expected.size(); ++v)
      EXPECT_NEAR(r.labels_f64[v], expected[v], 1e-9) << "vertex " << v;
  }

  const auto it = r.telemetry.find("sync.direct_sends");
  const std::uint64_t directs = it == r.telemetry.end() ? 0 : it->second;
  if (mode == comm::DirectWriteMode::Off) {
    EXPECT_EQ(directs, 0u) << "off means off";
  } else if (mode == comm::DirectWriteMode::Forced) {
    EXPECT_GT(directs, 0u) << "forced mode never engaged the direct path";
  }
}

std::string exactness_name(
    const ::testing::TestParamInfo<
        std::tuple<std::string, comm::BackendKind, comm::DirectWriteMode>>&
        info) {
  const auto& [app, backend, mode] = info.param;
  std::string s = app;
  s += '_';
  switch (backend) {
    case comm::BackendKind::Lci: s += "lci"; break;
    case comm::BackendKind::MpiProbe: s += "mpi_probe"; break;
    default: s += "mpi_rma"; break;
  }
  s += '_';
  s += comm::to_string(mode);
  return s;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, DirectWriteExactness,
    ::testing::Combine(::testing::Values("bfs", "cc", "sssp", "pagerank",
                                         "labelprop"),
                       ::testing::Values(comm::BackendKind::Lci,
                                         comm::BackendKind::MpiProbe,
                                         comm::BackendKind::MpiRma),
                       ::testing::Values(comm::DirectWriteMode::Off,
                                         comm::DirectWriteMode::Auto,
                                         comm::DirectWriteMode::Forced)),
    exactness_name);

// ---------------------------------------------------------------------------
// 4b. Lossy-fabric chaos: forced direct writes under drop + dup. Exactness
// here proves the retransmit path end to end: a dropped put's retransmission
// lands exactly once (reliability dedups the completion) and a put from
// before a region teardown can never validate against its successor.
// ---------------------------------------------------------------------------

class DirectWriteChaos
    : public ::testing::TestWithParam<
          std::tuple<comm::BackendKind, double>> {};

TEST_P(DirectWriteChaos, BfsExactUnderLossWithForcedDirectWrites) {
  const auto& [backend, drop] = GetParam();
  const graph::Csr g = graph::rmat(7, 8.0);
  bench::RunSpec spec;
  spec.app = "bfs";
  spec.backend = backend;
  spec.hosts = 4;
  spec.threads = 2;
  spec.direct_write = comm::DirectWriteMode::Forced;
  spec.source = bench::choose_source(g);
  spec.fabric.fault.seed = 42;
  spec.fabric.fault.drop_rate = drop;
  spec.fabric.fault.dup_rate = drop / 5.0;
  const bench::RunResult r = bench::run_app(g, spec);
  EXPECT_EQ(r.labels_u32, apps::reference_bfs(g, spec.source));
  EXPECT_GT(r.telemetry.at("fault.dropped"), 0u)
      << "chaos config injected no loss";
  const auto it = r.telemetry.find("sync.direct_sends");
  EXPECT_GT(it == r.telemetry.end() ? 0 : it->second, 0u);
}

TEST_P(DirectWriteChaos, PagerankExactUnderLossWithForcedDirectWrites) {
  const auto& [backend, drop] = GetParam();
  const graph::Csr g = graph::rmat(6, 8.0);
  bench::RunSpec spec;
  spec.app = "pagerank";
  spec.backend = backend;
  spec.hosts = 4;
  spec.threads = 2;
  spec.direct_write = comm::DirectWriteMode::Forced;
  spec.pagerank_iters = 8;
  spec.fabric.fault.seed = 7;
  spec.fabric.fault.drop_rate = drop;
  spec.fabric.fault.dup_rate = drop / 5.0;
  const bench::RunResult r = bench::run_app(g, spec);
  const auto expected = apps::reference_pagerank(g, 0.85, 8, 0.0);
  ASSERT_EQ(r.labels_f64.size(), expected.size());
  for (std::size_t v = 0; v < expected.size(); ++v)
    EXPECT_NEAR(r.labels_f64[v], expected[v], 1e-9)
        << "vertex " << v << " (double-applied or lost put?)";
}

std::string chaos_name(
    const ::testing::TestParamInfo<std::tuple<comm::BackendKind, double>>&
        info) {
  const auto& [backend, drop] = info.param;
  std::string s;
  switch (backend) {
    case comm::BackendKind::Lci: s = "lci"; break;
    case comm::BackendKind::MpiProbe: s = "mpi_probe"; break;
    default: s = "mpi_rma"; break;
  }
  s += drop < 0.02 ? "_drop1" : "_drop5";
  return s;
}

INSTANTIATE_TEST_SUITE_P(
    LossMatrix, DirectWriteChaos,
    ::testing::Combine(::testing::Values(comm::BackendKind::Lci,
                                         comm::BackendKind::MpiProbe,
                                         comm::BackendKind::MpiRma),
                       ::testing::Values(0.01, 0.05)),
    chaos_name);

// ---------------------------------------------------------------------------
// 4c. Gemini engine: dense rounds direct-put their combined frames (LCI
// backend); the THREAD_MULTIPLE MPI backend has no one-sided primitive and
// must stay exact on the pure streaming path.
// ---------------------------------------------------------------------------

TEST(GeminiDirectWrite, BfsAndPagerankExactWithForcedDirectWrites) {
  const graph::Csr g = graph::rmat(7, 8.0);
  bench::RunSpec spec;
  spec.engine = "gemini";
  spec.app = "bfs";
  spec.backend = comm::BackendKind::Lci;
  spec.hosts = 4;
  spec.threads = 2;
  spec.direct_write = comm::DirectWriteMode::Forced;
  spec.gemini_dense_threshold = 0.0;  // force dense: every round can put
  spec.source = bench::choose_source(g);
  const bench::RunResult r = bench::run_app(g, spec);
  EXPECT_EQ(r.labels_u32, apps::reference_bfs(g, spec.source));
  const auto it = r.telemetry.find("gemini.direct_sends");
  EXPECT_GT(it == r.telemetry.end() ? 0 : it->second, 0u)
      << "gemini dense rounds never engaged the direct path";

  bench::RunSpec pr = spec;
  pr.app = "pagerank";
  pr.pagerank_iters = 8;
  const bench::RunResult rr = bench::run_app(g, pr);
  const auto expected = apps::reference_pagerank(g, 0.85, 8, 0.0);
  ASSERT_EQ(rr.labels_f64.size(), expected.size());
  for (std::size_t v = 0; v < expected.size(); ++v)
    EXPECT_NEAR(rr.labels_f64[v], expected[v], 1e-9) << "vertex " << v;
}

TEST(GeminiDirectWrite, MpiMultiShimFallsBackToStreamingExactly) {
  const graph::Csr g = graph::rmat(7, 8.0);
  bench::RunSpec spec;
  spec.engine = "gemini";
  spec.app = "bfs";
  spec.backend = comm::BackendKind::MpiProbe;
  spec.hosts = 4;
  spec.threads = 2;
  spec.direct_write = comm::DirectWriteMode::Forced;
  spec.gemini_dense_threshold = 0.0;
  spec.source = bench::choose_source(g);
  const bench::RunResult r = bench::run_app(g, spec);
  EXPECT_EQ(r.labels_u32, apps::reference_bfs(g, spec.source));
  const auto it = r.telemetry.find("gemini.direct_sends");
  EXPECT_EQ(it == r.telemetry.end() ? 0 : it->second, 0u)
      << "the THREAD_MULTIPLE backend has no one-sided primitive";
}

TEST(GeminiDirectWrite, OffModeSendsNothingDirect) {
  const graph::Csr g = graph::rmat(6, 8.0);
  bench::RunSpec spec;
  spec.engine = "gemini";
  spec.app = "pagerank";
  spec.backend = comm::BackendKind::Lci;
  spec.hosts = 3;
  spec.threads = 2;
  spec.direct_write = comm::DirectWriteMode::Off;
  spec.pagerank_iters = 6;
  const bench::RunResult r = bench::run_app(g, spec);
  const auto expected = apps::reference_pagerank(g, 0.85, 6, 0.0);
  ASSERT_EQ(r.labels_f64.size(), expected.size());
  for (std::size_t v = 0; v < expected.size(); ++v)
    EXPECT_NEAR(r.labels_f64[v], expected[v], 1e-9);
  const auto it = r.telemetry.find("gemini.direct_sends");
  EXPECT_EQ(it == r.telemetry.end() ? 0 : it->second, 0u);
}

// ---------------------------------------------------------------------------
// 5. Kill-mid-put: the victim dies while puts are in flight; the revived
// fabric epoch fences stale completions, the rebuilt engine re-registers
// fresh regions, and retransmissions of pre-kill puts must die on the
// token fence instead of landing in the reborn registration. Under ASan
// this doubles as the use-after-free regression for caller-owned
// completion state reused across epochs (the PR 3 bug shape).
// ---------------------------------------------------------------------------

TEST(DirectWriteKillMidPut, StalePutAfterReviveIsFencedNotApplied) {
  fabric::Fabric fab(2, fabric::test_config());
  comm::BackendOptions opt;
  auto tx = std::make_unique<comm::LciBackend>(fab, 0, opt);
  auto rx = std::make_unique<comm::LciBackend>(fab, 1, opt);

  auto region_mem = std::make_unique<std::byte[]>(256);
  std::memset(region_mem.get(), 0, 256);
  const comm::DirectRegion region =
      rx->register_direct_region(0, region_mem.get(), 256, /*generation=*/1);
  ASSERT_TRUE(region.valid());

  // Puts in flight when the receiver host dies: post, then kill before the
  // receiver polls anything.
  std::vector<std::byte> payload(64, std::byte{0x5A});
  (void)tx->direct_put(1, region, payload.data(), payload.size(), 1, 1);
  fab.kill_now(1);

  // Victim unwinds: the old backend (and with it the old registration and
  // its RegionBook entry) is destroyed, then the host is revived under a
  // new fabric epoch and rebuilt from scratch. The region buffer itself is
  // freed - exactly the caller-owned-completion-reuse shape: any late
  // signal that still dereferenced the old entry would be a use-after-free
  // that ASan turns into a hard failure.
  rx.reset();
  region_mem.reset();
  fab.revive(1);
  rx = std::make_unique<comm::LciBackend>(fab, 1, opt);

  auto fresh_mem = std::make_unique<std::byte[]>(256);
  std::memset(fresh_mem.get(), 0, 256);
  const comm::DirectRegion fresh =
      rx->register_direct_region(0, fresh_mem.get(), 256, /*generation=*/2);
  ASSERT_TRUE(fresh.valid());
  EXPECT_NE(fresh.token, region.token);

  // Drive both sides long enough for any retransmission of the pre-kill put
  // to surface. It must neither signal nor write: its rkey died with the
  // old endpoint registration.
  comm::DirectSignal sig;
  for (int i = 0; i < 500; ++i) {
    tx->progress();
    rx->progress();
    ASSERT_FALSE(rx->poll_direct(sig)) << "stale-epoch put signalled";
  }
  for (std::size_t i = 0; i < 256; ++i)
    ASSERT_EQ(fresh_mem[i], std::byte{0}) << "stale put landed at byte " << i;

  // A retry of the put against the retired descriptor is cleanly refused.
  EXPECT_EQ(tx->direct_put(1, region, payload.data(), payload.size(), 1, 1),
            comm::DirectPutStatus::Unavailable);

  // The new-epoch path works: put against the fresh registration delivers.
  comm::DirectPutStatus st = comm::DirectPutStatus::Retry;
  for (int i = 0; i < 1000 && st == comm::DirectPutStatus::Retry; ++i) {
    st = tx->direct_put(1, fresh, payload.data(), payload.size(), 2, 1);
    tx->progress();
    rx->progress();
  }
  ASSERT_EQ(st, comm::DirectPutStatus::Ok);
  bool got = false;
  for (int i = 0; i < 2000 && !got; ++i) {
    tx->progress();
    rx->progress();
    got = rx->poll_direct(sig);
  }
  ASSERT_TRUE(got);
  EXPECT_EQ(sig.generation, 2u);
  EXPECT_EQ(std::memcmp(fresh_mem.get(), payload.data(), payload.size()), 0);
  rx->release_direct_region(0, fresh);
}

}  // namespace
}  // namespace lcr
