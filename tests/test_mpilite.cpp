// Tests for mpilite two-sided semantics: matching, ordering, wildcards,
// probe, rendezvous, collectives, thread modes, personality lookup.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_support/runner.hpp"
#include "fabric/fabric.hpp"
#include "graph/generators.hpp"
#include "mpilite/collectives.hpp"
#include "mpilite/comm.hpp"
#include "mpilite/personality.hpp"
#include "runtime/ult.hpp"

namespace lcr {
namespace {

mpi::Personality fast_personality() {
  mpi::Personality p;  // zero modelled costs: pure semantics tests
  p.call_overhead_ns = 0;
  p.match_cost_ns = 0;
  p.probe_cost_ns = 0;
  p.lock_cost_ns = 0;
  p.rma_put_cost_ns = 0;
  p.rma_sync_cost_ns = 0;
  p.eager_limit = 1024;
  return p;
}

struct MpiPairTest : ::testing::Test {
  MpiPairTest()
      : fab(2, fabric::test_config()),
        c0(fab, 0, fast_personality(), mpi::ThreadLevel::Funneled),
        c1(fab, 1, fast_personality(), mpi::ThreadLevel::Funneled) {}

  fabric::Fabric fab;
  mpi::Comm c0;
  mpi::Comm c1;
};

TEST_F(MpiPairTest, EagerSendRecv) {
  const std::string msg = "hello mpi";
  c0.send(msg.data(), msg.size(), 1, 7);
  std::vector<char> buf(64);
  const mpi::Status st = c1.recv(buf.data(), buf.size(), 0, 7);
  EXPECT_EQ(st.source, 0);
  EXPECT_EQ(st.tag, 7);
  ASSERT_EQ(st.size, msg.size());
  EXPECT_EQ(std::memcmp(buf.data(), msg.data(), msg.size()), 0);
}

TEST_F(MpiPairTest, IsendCompletesEagerImmediately) {
  const int v = 42;
  mpi::Request req = c0.isend(&v, sizeof(v), 1, 0);
  EXPECT_TRUE(c0.test(req));
  int out = 0;
  c1.recv(&out, sizeof(out), 0, 0);
  EXPECT_EQ(out, 42);
}

TEST_F(MpiPairTest, PostedReceiveMatchesLater) {
  int out = 0;
  mpi::Request rreq = c1.irecv(&out, sizeof(out), 0, 5);
  EXPECT_FALSE(c1.test(rreq));
  const int v = 99;
  c0.send(&v, sizeof(v), 1, 5);
  c1.wait(rreq);
  EXPECT_EQ(out, 99);
  EXPECT_EQ(rreq->status.source, 0);
}

TEST_F(MpiPairTest, WildcardSourceAndTag) {
  const int v = 13;
  c0.send(&v, sizeof(v), 1, 77);
  int out = 0;
  const mpi::Status st =
      c1.recv(&out, sizeof(out), mpi::kAnySource, mpi::kAnyTag);
  EXPECT_EQ(out, 13);
  EXPECT_EQ(st.source, 0);
  EXPECT_EQ(st.tag, 77);
}

TEST_F(MpiPairTest, TagSelectionFromUnexpectedQueue) {
  const int a = 1, b = 2;
  c0.send(&a, sizeof(a), 1, 10);
  c0.send(&b, sizeof(b), 1, 20);
  int out = 0;
  // Receive tag 20 first even though tag 10 arrived first.
  c1.recv(&out, sizeof(out), 0, 20);
  EXPECT_EQ(out, 2);
  c1.recv(&out, sizeof(out), 0, 10);
  EXPECT_EQ(out, 1);
}

TEST_F(MpiPairTest, PerSourceTagOrderingIsFifo) {
  for (int i = 0; i < 10; ++i) c0.send(&i, sizeof(i), 1, 4);
  for (int i = 0; i < 10; ++i) {
    int out = -1;
    c1.recv(&out, sizeof(out), 0, 4);
    EXPECT_EQ(out, i);  // strict per-(src, tag) FIFO
  }
}

TEST_F(MpiPairTest, IprobeReportsSizeWithoutConsuming) {
  const std::string msg = "probe me";
  c0.send(msg.data(), msg.size(), 1, 3);
  mpi::Status st;
  ASSERT_TRUE(c1.iprobe(mpi::kAnySource, mpi::kAnyTag, &st));
  EXPECT_EQ(st.size, msg.size());
  EXPECT_EQ(st.source, 0);
  EXPECT_EQ(st.tag, 3);
  // Probe again: still there.
  ASSERT_TRUE(c1.iprobe(0, 3, &st));
  std::vector<char> buf(st.size);
  c1.recv(buf.data(), buf.size(), st.source, st.tag);
  EXPECT_FALSE(c1.iprobe(mpi::kAnySource, mpi::kAnyTag, &st));
}

TEST_F(MpiPairTest, IprobeNoMessageReturnsFalse) {
  mpi::Status st;
  EXPECT_FALSE(c1.iprobe(mpi::kAnySource, mpi::kAnyTag, &st));
}

TEST_F(MpiPairTest, RendezvousLargeMessage) {
  std::vector<char> big(8000);  // > 1024 eager limit
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<char>(i * 13);
  std::vector<char> out(big.size());

  mpi::Request sreq = c0.isend(big.data(), big.size(), 1, 6);
  mpi::Request rreq = c1.irecv(out.data(), out.size(), 0, 6);
  while (!c0.test(sreq) || !c1.test(rreq)) {
    c0.progress();
    c1.progress();
  }
  EXPECT_EQ(out, big);
}

TEST_F(MpiPairTest, RendezvousUnexpectedRtsThenRecv) {
  std::vector<char> big(4000);
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<char>(i);
  mpi::Request sreq = c0.isend(big.data(), big.size(), 1, 2);
  // Let the RTS land in the unexpected queue.
  c1.progress();
  mpi::Status st;
  ASSERT_TRUE(c1.iprobe(0, 2, &st));
  EXPECT_EQ(st.size, big.size());  // probe sees rendezvous size

  std::vector<char> out(big.size());
  mpi::Request rreq = c1.irecv(out.data(), out.size(), 0, 2);
  while (!c0.test(sreq) || !c1.test(rreq)) {
    c0.progress();
    c1.progress();
  }
  EXPECT_EQ(out, big);
}

TEST_F(MpiPairTest, BacklogFlushesUnderBackpressure) {
  // Exhaust the receiver's internal rx buffers by sending many messages
  // without progressing the receiver; isend must keep accepting (no back
  // pressure) and flush later.
  constexpr int kCount = 300;
  std::vector<mpi::Request> sends;
  for (int i = 0; i < kCount; ++i)
    sends.push_back(c0.isend(&i, sizeof(i), 1, 1));
  EXPECT_GT(c0.stats().backlogged_sends.load(), 0u);

  int expected = 0;
  while (expected < kCount) {
    int out = -1;
    c1.recv(&out, sizeof(out), 0, 1);
    EXPECT_EQ(out, expected);
    ++expected;
    c0.progress();  // flush sender backlog
  }
  for (auto& s : sends) c0.wait(s);
}

TEST(MpiMultiThread, ConcurrentSendersUnderThreadMultiple) {
  fabric::Fabric fab(2, fabric::test_config());
  mpi::Comm c0(fab, 0, fast_personality(), mpi::ThreadLevel::Multiple);
  mpi::Comm c1(fab, 1, fast_personality(), mpi::ThreadLevel::Multiple);

  constexpr int kPerThread = 100;
  constexpr int kThreads = 3;
  std::vector<std::thread> senders;
  for (int t = 0; t < kThreads; ++t) {
    senders.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int v = t * kPerThread + i;
        c0.send(&v, sizeof(v), 1, t);  // tag = thread id
      }
    });
  }
  std::vector<int> seen;
  for (int n = 0; n < kThreads * kPerThread; ++n) {
    int out = -1;
    mpi::Request r = c1.irecv(&out, sizeof(out), mpi::kAnySource,
                              mpi::kAnyTag);
    // MPI progress only happens inside calls: keep progressing the sender
    // too, or its backlog (messages accepted without back pressure) would
    // never flush once the sender threads return.
    while (!c1.test(r)) c0.progress();
    seen.push_back(out);
  }
  for (auto& t : senders) t.join();
  std::sort(seen.begin(), seen.end());
  for (int i = 0; i < kThreads * kPerThread; ++i) EXPECT_EQ(seen[i], i);
}

// Two fibers of one host share a THREAD_MULTIPLE comm on a single ULT worker.
// Fiber A yields while inside the comm's global lock - its direct handler
// stands in for a contended nested rt::Spinlock, whose Backoff yields the
// fiber - and fiber B then calls progress(). A waiter that blocks its OS
// thread would put the only worker to sleep with A queued behind it, so the
// comm lock must yield the waiting fiber instead (DESIGN.md §16). A deadlock
// cannot be unwound from inside the process, so a deadline reports and aborts.
TEST(MpiMultiThread, CommLockWaiterYieldsToFiberHoldingIt) {
  fabric::Fabric fab(2, fabric::test_config());
  mpi::Comm c0(fab, 0, fast_personality(), mpi::ThreadLevel::Multiple);
  mpi::Comm c1(fab, 1, fast_personality(), mpi::ThreadLevel::Funneled);

  std::vector<std::uint64_t> region(4, 0);
  const fabric::RKey rkey = c0.endpoint().register_memory(
      region.data(), region.size() * sizeof(std::uint64_t));
  std::atomic<bool> holder_in_lock{false};
  std::atomic<bool> waiter_started{false};
  std::atomic<bool> handled{false};
  c0.set_direct_handler([&](const fabric::MsgMeta&) {
    holder_in_lock.store(true);
    while (!waiter_started.load()) ult::yield();
    handled.store(true);
  });
  const std::uint64_t payload = 0xC0FFEE;
  ASSERT_EQ(c1.direct_try_put(0, rkey, &payload, sizeof(payload), 0, 0),
            fabric::PostResult::Ok);

  std::atomic<bool> finished{false};
  std::thread owner([&] {
    ult::Scheduler sched({.workers = 1});
    sched.spawn([&] {  // fiber A: takes the lock and yields inside it
      while (!handled.load()) c0.progress();
    }, /*host=*/0);
    sched.spawn([&] {  // fiber B: contends for the lock A holds
      while (!holder_in_lock.load()) ult::yield();
      waiter_started.store(true);
      c0.progress();
    }, /*host=*/0);
    sched.run();
    finished.store(true);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!finished.load() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  if (!finished.load()) {
    std::fprintf(stderr,
                 "DEADLOCK: the comm-lock waiter blocked the only ULT worker "
                 "while the fiber holding the lock was queued on it "
                 "(holder_in_lock=%d waiter_started=%d handled=%d)\n",
                 holder_in_lock.load(), waiter_started.load(), handled.load());
    std::abort();
  }
  owner.join();
  EXPECT_TRUE(handled.load());
  EXPECT_EQ(region[0], payload);
}

TEST_F(MpiPairTest, WaitAllAndTestAll) {
  std::vector<mpi::Request> sends;
  for (int i = 0; i < 8; ++i)
    sends.push_back(c0.isend(&i, sizeof(i), 1, i));
  EXPECT_TRUE(c0.test_all(sends));  // eager: all complete
  c0.wait_all(sends);

  std::vector<int> outs(8, -1);
  std::vector<mpi::Request> recvs;
  for (int i = 0; i < 8; ++i)
    recvs.push_back(c1.irecv(&outs[static_cast<std::size_t>(i)],
                             sizeof(int), 0, i));
  while (!c1.test_all(recvs)) c0.progress();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(outs[static_cast<std::size_t>(i)], i);
}

TEST(MpiSendrecv, ExchangesWithoutDeadlock) {
  fabric::Fabric fab(2, fabric::test_config());
  mpi::Comm c0(fab, 0, fast_personality(), mpi::ThreadLevel::Funneled);
  mpi::Comm c1(fab, 1, fast_personality(), mpi::ThreadLevel::Funneled);
  std::thread peer([&] {
    int mine = 11, theirs = 0;
    c1.sendrecv(&mine, sizeof(mine), 0, 1, &theirs, sizeof(theirs), 0, 1);
    EXPECT_EQ(theirs, 22);
  });
  int mine = 22, theirs = 0;
  c0.sendrecv(&mine, sizeof(mine), 1, 1, &theirs, sizeof(theirs), 1, 1);
  EXPECT_EQ(theirs, 11);
  peer.join();
}

TEST(MpiCollectives, BarrierAllreduceAllgather) {
  constexpr int kRanks = 4;
  fabric::Fabric fab(kRanks, fabric::test_config());
  std::vector<std::unique_ptr<mpi::Comm>> comms;
  for (int r = 0; r < kRanks; ++r)
    comms.push_back(std::make_unique<mpi::Comm>(
        fab, r, fast_personality(), mpi::ThreadLevel::Funneled));

  std::vector<std::uint64_t> sums(kRanks);
  std::vector<std::vector<std::uint32_t>> gathers(kRanks);
  std::vector<std::thread> threads;
  for (int r = 0; r < kRanks; ++r) {
    threads.emplace_back([&, r] {
      mpi::barrier(*comms[r]);
      sums[r] = mpi::allreduce(*comms[r], std::uint64_t(r + 1),
                               [](std::uint64_t a, std::uint64_t b) {
                                 return a + b;
                               });
      gathers[r] =
          mpi::allgather(*comms[r], static_cast<std::uint32_t>(r * 10));
      mpi::barrier(*comms[r]);
    });
  }
  for (auto& t : threads) t.join();
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(sums[r], 1u + 2 + 3 + 4);
    ASSERT_EQ(gathers[r].size(), static_cast<std::size_t>(kRanks));
    for (int j = 0; j < kRanks; ++j)
      EXPECT_EQ(gathers[r][j], static_cast<std::uint32_t>(j * 10));
  }
}

TEST_F(MpiPairTest, MatchingStatsCountQueueTraversal) {
  // Fill the UMQ with 8 messages, then receive the LAST tag: the scan must
  // have inspected all of them (the sequential-list cost the paper cites).
  for (int i = 0; i < 8; ++i) c0.send(&i, sizeof(i), 1, i);
  c1.progress();
  const std::uint64_t before = c1.stats().umq_scanned.load();
  int out = -1;
  c1.recv(&out, sizeof(out), 0, 7);
  EXPECT_EQ(out, 7);
  EXPECT_GE(c1.stats().umq_scanned.load() - before, 8u);
  // Drain the rest.
  for (int i = 0; i < 7; ++i) c1.recv(&out, sizeof(out), 0, i);
}

TEST_F(MpiPairTest, UnexpectedMessagesAreCounted) {
  const int v = 1;
  c0.send(&v, sizeof(v), 1, 0);
  c1.progress();  // arrives with no posted receive
  EXPECT_EQ(c1.stats().unexpected_msgs.load(), 1u);
  int out = 0;
  c1.recv(&out, sizeof(out), 0, 0);

  // A pre-posted receive is never "unexpected".
  int out2 = 0;
  mpi::Request r = c1.irecv(&out2, sizeof(out2), 0, 1);
  c0.send(&v, sizeof(v), 1, 1);
  c1.wait(r);
  EXPECT_EQ(c1.stats().unexpected_msgs.load(), 1u);
}

TEST(MpiPersonality, VendorPresetsDiffer) {
  const mpi::Personality intel = mpi::intelmpi_like();
  const mpi::Personality mva = mpi::mvapich_like();
  const mpi::Personality open = mpi::openmpi_like();
  // The "no clear winner" construction: each wins a different dimension.
  EXPECT_LT(intel.match_cost_ns, mva.match_cost_ns);
  EXPECT_LT(mva.probe_cost_ns, intel.probe_cost_ns);
  EXPECT_LT(intel.rma_put_cost_ns, open.rma_put_cost_ns);
  EXPECT_GT(open.call_overhead_ns, intel.call_overhead_ns);
}

TEST(MpiFatal, UnexpectedBufferExhaustionThrows) {
  fabric::Fabric fab(2, fabric::test_config());
  mpi::Personality strict = fast_personality();
  strict.max_unexpected_bytes = 2048;  // tiny internal budget
  mpi::Comm c0(fab, 0, strict, mpi::ThreadLevel::Funneled);
  mpi::Comm c1(fab, 1, strict, mpi::ThreadLevel::Funneled);

  // Flood rank 1 with unexpected messages and let it progress until its
  // internal buffering exceeds the budget: "the program crashes".
  std::vector<char> payload(512, 'x');
  EXPECT_THROW(
      {
        for (int i = 0; i < 64; ++i) {
          c0.isend(payload.data(), payload.size(), 1, 9);
          c1.progress();
        }
      },
      mpi::FatalMpiError);
}

TEST(Personality, NamesMapToTheirPersonalities) {
  EXPECT_EQ(mpi::personality_by_name("default").name, "default");
  EXPECT_EQ(mpi::personality_by_name("intelmpi").name, "intelmpi");
  EXPECT_EQ(mpi::personality_by_name("mvapich").name, "mvapich");
  EXPECT_EQ(mpi::personality_by_name("openmpi").name, "openmpi");
  EXPECT_EQ(mpi::personality_by_name("openmpi").eager_limit,
            mpi::openmpi_like().eager_limit);
  EXPECT_EQ(mpi::personality_by_name("mvapich").rma_sync_cost_ns,
            mpi::mvapich_like().rma_sync_cost_ns);
}

TEST(Personality, UnknownNameThrows) {
  EXPECT_THROW(mpi::personality_by_name("intel"), std::invalid_argument);
  EXPECT_THROW(mpi::personality_by_name(""), std::invalid_argument);
}

/// A typo in the personality must fail the run up front, not hang the
/// cluster with one host's backend dead at construction.
TEST(Personality, RunAppRejectsUnknownName) {
  const graph::Csr g = graph::rmat(5, 4.0);
  for (const comm::BackendKind backend :
       {comm::BackendKind::MpiProbe, comm::BackendKind::MpiRma}) {
    bench::RunSpec spec;
    spec.app = "bfs";
    spec.backend = backend;
    spec.hosts = 2;
    spec.mpi_personality = "intel";
    EXPECT_THROW(bench::run_app(g, spec), std::invalid_argument);
    spec.engine = "gemini";
    if (backend == comm::BackendKind::MpiProbe) {
      EXPECT_THROW(bench::run_app(g, spec), std::invalid_argument);
    }
  }
}

}  // namespace
}  // namespace lcr
