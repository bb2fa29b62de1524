// Tests for the LCI runtime: eager/rendezvous protocols, first-packet
// policy, resource exhaustion, packet pool, progress server.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "fabric/fabric.hpp"
#include "lci/completion.hpp"
#include "lci/packet.hpp"
#include "lci/queue.hpp"
#include "lci/server.hpp"
#include "runtime/mem_tracker.hpp"

namespace lcr {
namespace {

// ---------------------------------------------------------------------------
// PacketPool
// ---------------------------------------------------------------------------

TEST(PacketPool, AllocFreeCycle) {
  lci::PacketPool pool(8, 256);
  EXPECT_EQ(pool.count(), 8u);
  lci::Packet* p = pool.alloc();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->capacity, 256u);
  pool.free(p);
}

TEST(PacketPool, ExhaustionReturnsNull) {
  lci::PacketPool pool(4, 64, /*num_caches=*/0);
  std::vector<lci::Packet*> taken;
  for (int i = 0; i < 4; ++i) {
    lci::Packet* p = pool.alloc();
    ASSERT_NE(p, nullptr);
    taken.push_back(p);
  }
  EXPECT_EQ(pool.alloc(), nullptr);  // non-fatal exhaustion
  pool.free(taken.back());
  taken.pop_back();
  EXPECT_NE(pool.alloc(), nullptr);
  for (auto* p : taken) pool.free(p);
}

TEST(PacketPool, AllPacketsDistinctSlabs) {
  lci::PacketPool pool(16, 128, 0);
  std::set<std::byte*> slabs;
  std::vector<lci::Packet*> taken;
  for (int i = 0; i < 16; ++i) {
    lci::Packet* p = pool.alloc();
    ASSERT_NE(p, nullptr);
    slabs.insert(p->data);
    taken.push_back(p);
  }
  EXPECT_EQ(slabs.size(), 16u);
  for (auto* p : taken) pool.free(p);
}

TEST(PacketPool, LocalityCachesRecycle) {
  lci::PacketPool pool(8, 64, /*num_caches=*/4);
  lci::Packet* p1 = pool.alloc();
  pool.free(p1);
  lci::Packet* p2 = pool.alloc();
  // Same thread should get its cached packet back (locality).
  EXPECT_EQ(p1, p2);
  pool.free(p2);
}

// ---------------------------------------------------------------------------
// Queue protocol
// ---------------------------------------------------------------------------

struct LciPairTest : ::testing::Test {
  LciPairTest()
      : fab(2, fabric::test_config()),
        q0(fab, 0, make_cfg()),
        q1(fab, 1, make_cfg()) {}

  lci::QueueConfig make_cfg() {
    lci::QueueConfig cfg;
    cfg.device.tx_packets = 8;
    cfg.device.rx_packets = 16;
    cfg.tracker = &tracker;
    return cfg;
  }

  void progress_both() {
    q0.progress_all();
    q1.progress_all();
  }

  fabric::Fabric fab;
  rt::MemTracker tracker;
  lci::Queue q0;
  lci::Queue q1;
};

TEST_F(LciPairTest, EagerSendCompletesImmediately) {
  const std::string msg = "eager hello";
  lci::Request sreq;
  ASSERT_TRUE(q0.send_enq(msg.data(), msg.size(), 1, 5, sreq));
  EXPECT_TRUE(sreq.done());  // eager: done at return

  q1.progress_all();
  lci::Request rreq;
  ASSERT_TRUE(q1.recv_deq(rreq));
  EXPECT_TRUE(rreq.done());
  EXPECT_EQ(rreq.peer, 0u);
  EXPECT_EQ(rreq.tag, 5u);
  ASSERT_EQ(rreq.size, msg.size());
  EXPECT_EQ(std::memcmp(rreq.buffer, msg.data(), msg.size()), 0);
  q1.release(rreq);
}

TEST_F(LciPairTest, RecvDeqEmptyReturnsFalse) {
  lci::Request req;
  EXPECT_FALSE(q1.recv_deq(req));
}

TEST_F(LciPairTest, RendezvousTransfersLargeMessage) {
  // Larger than the eager limit (= MTU of the test fabric).
  std::vector<char> big(q0.eager_limit() * 3 + 17);
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<char>(i * 31 + 7);

  lci::Request sreq;
  ASSERT_TRUE(q0.send_enq(big.data(), big.size(), 1, 9, sreq));
  EXPECT_FALSE(sreq.done());  // rendezvous: pending until the put

  // Receiver dequeues the RTS and answers with RTR.
  q1.progress_all();
  lci::Request rreq;
  ASSERT_TRUE(q1.recv_deq(rreq));
  EXPECT_FALSE(rreq.done());
  EXPECT_EQ(rreq.size, big.size());

  // Sender's server gets the RTR, puts the data; receiver sees the RDMA.
  for (int i = 0; i < 100 && !(sreq.done() && rreq.done()); ++i)
    progress_both();
  ASSERT_TRUE(sreq.done());
  ASSERT_TRUE(rreq.done());
  EXPECT_EQ(std::memcmp(rreq.buffer, big.data(), big.size()), 0);

  // The rendezvous buffer was tracker-accounted and freed on release.
  EXPECT_GE(tracker.peak(), big.size());
  q1.release(rreq);
  EXPECT_EQ(tracker.current(), 0u);
}

TEST_F(LciPairTest, FirstPacketPolicyDeliversArrivalOrder) {
  // Two sends with different tags: recv_deq returns them in arrival order,
  // no tag matching.
  const std::uint32_t a = 111, b = 222;
  lci::Request s1, s2;
  ASSERT_TRUE(q0.send_enq(&a, sizeof(a), 1, 70, s1));
  ASSERT_TRUE(q0.send_enq(&b, sizeof(b), 1, 30, s2));
  q1.progress_all();

  lci::Request r1, r2;
  ASSERT_TRUE(q1.recv_deq(r1));
  ASSERT_TRUE(q1.recv_deq(r2));
  EXPECT_EQ(r1.tag, 70u);
  EXPECT_EQ(r2.tag, 30u);
  EXPECT_EQ(*static_cast<const std::uint32_t*>(r1.buffer), a);
  EXPECT_EQ(*static_cast<const std::uint32_t*>(r2.buffer), b);
  q1.release(r1);
  q1.release(r2);
}

TEST_F(LciPairTest, SendExhaustionIsRetryable) {
  // Fill the receiver's rx window (16 packets) without draining.
  const std::uint32_t v = 1;
  std::vector<std::unique_ptr<lci::Request>> reqs;
  int sent = 0;
  for (int i = 0; i < 64; ++i) {
    auto req = std::make_unique<lci::Request>();
    if (!q0.send_enq(&v, sizeof(v), 1, 0, *req)) break;
    ++sent;
    reqs.push_back(std::move(req));
  }
  EXPECT_GT(sent, 0);
  EXPECT_LT(sent, 64);  // back pressure kicked in (non-fatal)
  EXPECT_GT(q0.stats().send_retries.load(), 0u);

  // Drain one message at the receiver; the sender can proceed again.
  q1.progress_all();
  lci::Request r;
  ASSERT_TRUE(q1.recv_deq(r));
  q1.release(r);
  lci::Request retry;
  EXPECT_TRUE(q0.send_enq(&v, sizeof(v), 1, 0, retry));

  // Cleanup: drain the rest so the fixture tears down cleanly.
  q1.progress_all();
  lci::Request drain;
  while (q1.recv_deq(drain)) q1.release(drain);
}

TEST_F(LciPairTest, ManyMessagesBothDirections) {
  constexpr int kCount = 200;
  int got0 = 0, got1 = 0;
  int sent0 = 0, sent1 = 0;
  std::vector<std::unique_ptr<lci::Request>> live;
  while (got0 < kCount || got1 < kCount) {
    if (sent0 < kCount) {
      auto req = std::make_unique<lci::Request>();
      const std::uint32_t v = static_cast<std::uint32_t>(sent0);
      if (q0.send_enq(&v, sizeof(v), 1, 0, *req)) {
        ++sent0;
        live.push_back(std::move(req));
      }
    }
    if (sent1 < kCount) {
      auto req = std::make_unique<lci::Request>();
      const std::uint32_t v = static_cast<std::uint32_t>(sent1);
      if (q1.send_enq(&v, sizeof(v), 0, 0, *req)) {
        ++sent1;
        live.push_back(std::move(req));
      }
    }
    progress_both();
    lci::Request r;
    if (q0.recv_deq(r) && r.done()) {
      ++got0;
      q0.release(r);
    }
    if (q1.recv_deq(r) && r.done()) {
      ++got1;
      q1.release(r);
    }
  }
  EXPECT_EQ(got0, kCount);
  EXPECT_EQ(got1, kCount);
}

TEST_F(LciPairTest, BlockingHelpersRoundTrip) {
  std::thread peer([&] {
    lci::Request req;
    q1.recv_blocking(req);
    EXPECT_EQ(req.tag, 3u);
    std::uint64_t echo;
    std::memcpy(&echo, req.buffer, sizeof(echo));
    q1.release(req);
    q1.send_blocking(&echo, sizeof(echo), 0, 4);
  });
  const std::uint64_t value = 0xABCDEF;
  q0.send_blocking(&value, sizeof(value), 1, 3);
  lci::Request req;
  q0.recv_blocking(req);
  EXPECT_EQ(req.tag, 4u);
  std::uint64_t echoed;
  std::memcpy(&echoed, req.buffer, sizeof(echoed));
  EXPECT_EQ(echoed, value);
  q0.release(req);
  peer.join();
}

TEST_F(LciPairTest, ProgressServerCompletesTransfers) {
  lci::ProgressServer server0(q0);
  lci::ProgressServer server1(q1);
  server0.start();
  server1.start();
  EXPECT_TRUE(server0.running());

  std::vector<char> big(q0.eager_limit() * 2);
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<char>(i & 0xFF);
  lci::Request sreq;
  while (!q0.send_enq(big.data(), big.size(), 1, 8, sreq))
    std::this_thread::yield();

  lci::Request rreq;
  while (!q1.recv_deq(rreq)) std::this_thread::yield();
  while (!rreq.done() || !sreq.done()) std::this_thread::yield();
  EXPECT_EQ(std::memcmp(rreq.buffer, big.data(), big.size()), 0);
  q1.release(rreq);
  server0.stop();
  server1.stop();
  EXPECT_FALSE(server0.running());
}

TEST_F(LciPairTest, CompletionCounterAggregatesSends) {
  lci::CompletionCounter counter;
  constexpr int kCount = 10;
  counter.expect(kCount);
  std::vector<std::unique_ptr<lci::Request>> reqs;
  const std::uint32_t v = 7;
  for (int i = 0; i < kCount; ++i) {
    auto req = std::make_unique<lci::Request>();
    req->signal = &counter;
    while (!q0.send_enq(&v, sizeof(v), 1, 0, *req)) q1.progress_all();
    reqs.push_back(std::move(req));
  }
  // Eager sends complete inline: one counter, not ten flags.
  EXPECT_TRUE(counter.complete());
  EXPECT_EQ(counter.done(), 10u);
  // Drain for clean teardown.
  q1.progress_all();
  lci::Request r;
  while (q1.recv_deq(r)) q1.release(r);
}

TEST_F(LciPairTest, CompletionCounterCoversRendezvous) {
  lci::CompletionCounter counter;
  counter.expect(1);
  std::vector<char> big(q0.eager_limit() * 2, 'x');
  lci::Request sreq;
  sreq.signal = &counter;
  ASSERT_TRUE(q0.send_enq(big.data(), big.size(), 1, 0, sreq));
  EXPECT_FALSE(counter.complete());  // rendezvous still pending

  q1.progress_all();
  lci::Request rreq;
  ASSERT_TRUE(q1.recv_deq(rreq));
  for (int i = 0; i < 200 && !counter.complete(); ++i) progress_both();
  EXPECT_TRUE(counter.complete());
  while (!rreq.done()) progress_both();
  q1.release(rreq);
}

TEST(CompletionCounter, ExpectSignalReset) {
  lci::CompletionCounter c;
  EXPECT_TRUE(c.complete());  // vacuously
  c.expect(3);
  EXPECT_FALSE(c.complete());
  c.signal();
  c.signal();
  EXPECT_FALSE(c.complete());
  c.signal();
  EXPECT_TRUE(c.complete());
  c.reset();
  EXPECT_EQ(c.expected(), 0u);
  EXPECT_EQ(c.done(), 0u);
}

TEST_F(LciPairTest, PacketConservationAtQuiescence) {
  // Flow-control soundness: after all traffic is consumed and released, the
  // full receive window (every pool packet) must be back on the NIC -
  // nothing leaked into the queue, requests, or thin air.
  const std::size_t rx0 = q0.device().endpoint().rx_available();
  const std::size_t rx1 = q1.device().endpoint().rx_available();
  EXPECT_EQ(rx0, q0.device().rx_packets());
  EXPECT_EQ(rx1, q1.device().rx_packets());

  constexpr int kCount = 50;
  const std::uint64_t v = 9;
  std::vector<std::unique_ptr<lci::Request>> reqs;
  int sent = 0;
  int received = 0;
  while (received < kCount) {
    if (sent < kCount) {
      auto req = std::make_unique<lci::Request>();
      if (q0.send_enq(&v, sizeof(v), 1, 0, *req)) {
        ++sent;
        reqs.push_back(std::move(req));
      }
    }
    progress_both();
    lci::Request in;
    while (q1.recv_deq(in)) {
      q1.release(in);  // recycles the packet into the window
      ++received;
    }
  }
  progress_both();
  EXPECT_EQ(q1.device().endpoint().rx_available(), q1.device().rx_packets());
  EXPECT_EQ(q0.device().endpoint().rx_available(), q0.device().rx_packets());
}

TEST_F(LciPairTest, StatsCountProtocolPaths) {
  const std::uint32_t small = 1;
  std::vector<char> big(q0.eager_limit() + 1);
  lci::Request s1, s2;
  ASSERT_TRUE(q0.send_enq(&small, sizeof(small), 1, 0, s1));
  ASSERT_TRUE(q0.send_enq(big.data(), big.size(), 1, 0, s2));
  EXPECT_EQ(q0.stats().eager_sends.load(), 1u);
  EXPECT_EQ(q0.stats().rdv_sends.load(), 1u);
  // Finish the rendezvous for clean teardown.
  lci::Request r;
  for (int i = 0; i < 200 && !(s2.done()); ++i) {
    progress_both();
    if (r.buffer == nullptr) q1.recv_deq(r);
  }
  lci::Request r2;
  q1.progress_all();
  while (q1.recv_deq(r2)) q1.release(r2);
  if (r.buffer != nullptr) q1.release(r);
}

}  // namespace
}  // namespace lcr
