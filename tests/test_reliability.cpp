// ReliableChannel protocol tests over a deliberately lossy fabric: seeded
// fault replay, CRC rejection + retransmit recovery, duplicate suppression,
// probe-first put recovery, and the brownout stall watchdog. These run the
// channel raw (no LCI/mpilite on top), single-threaded, in lock-step, with
// the deterministic tick clock. The last case runs the full LCI stack with
// concurrent posting threads instead.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <map>
#include <optional>
#include <thread>
#include <vector>

#include "fabric/fabric.hpp"
#include "fabric/reliable.hpp"
#include "lci/queue.hpp"
#include "lci/server.hpp"
#include "runtime/cpu_relax.hpp"
#include "runtime/timer.hpp"

namespace lcr {
namespace {

constexpr std::size_t kSlots = 64;
constexpr std::uint32_t kPayloadBytes = 24;

/// One rank's endpoint + channel + rx slab, with recycling wired up the way
/// the real owners (LCI device, mpilite comm) do it.
struct Peer {
  Peer(fabric::Fabric& fab, fabric::Rank r, fabric::ReliabilityConfig cfg)
      : mtu(fab.config().mtu),
        ep(fab.endpoint(r)),
        chan(fab, r, cfg, "test"),
        slab(kSlots * mtu) {
    for (std::uint64_t i = 0; i < kSlots; ++i) repost(i);
    chan.set_recycle(
        [this](const fabric::Cqe& c) { repost(c.rx_context); });
  }

  void repost(std::uint64_t i) {
    ep.post_rx({slab.data() + i * mtu, mtu, i});
  }

  std::size_t mtu;
  fabric::Endpoint& ep;
  fabric::ReliableChannel chan;
  std::vector<std::byte> slab;
};

void fill_payload(std::byte* buf, std::uint32_t tag) {
  for (std::uint32_t j = 0; j < kPayloadBytes; ++j)
    buf[j] = static_cast<std::byte>((tag * 7 + j * 13 + 3) & 0xFF);
}

bool check_payload(const void* buf, std::uint32_t tag) {
  std::byte want[kPayloadBytes];
  fill_payload(want, tag);
  return std::memcmp(buf, want, kPayloadBytes) == 0;
}

fabric::ReliabilityConfig tick_config() {
  fabric::ReliabilityConfig rc;
  rc.tick_clock = true;
  rc.rto_ns = 8;        // ticks
  rc.rto_max_ns = 64;   // ticks
  rc.watchdog_quiet_ns = 0;
  return rc;
}

/// Everything one lossy exchange produces: the tag sequence the receiver
/// observed plus both endpoints' fault + protocol counters.
struct ExchangeTrace {
  std::vector<std::uint32_t> tags;
  std::vector<std::uint64_t> counters;
  bool drained = false;
};

std::vector<std::uint64_t> snapshot(const fabric::EndpointStats& s) {
  return {s.faults_dropped.load(),   s.faults_duplicated.load(),
          s.faults_corrupted.load(), s.faults_delayed.load(),
          s.faults_reordered.load(), s.rel_data_tx.load(),
          s.rel_retransmits.load(),  s.rel_probes_tx.load(),
          s.rel_acks_tx.load(),      s.rel_acks_rx.load(),
          s.rel_delivered.load(),    s.rel_dup_dropped.load(),
          s.rel_crc_dropped.load(),  s.rel_ooo_held.load(),
          s.rel_ooo_dropped.load()};
}

/// Sends `n` eager messages 0 -> 1 through the reliability protocol over a
/// fabric configured with `fault`, pumping both sides in lock-step.
ExchangeTrace run_exchange(const fabric::FaultProfile& fault, std::size_t n) {
  fabric::FabricConfig cfg = fabric::test_config();
  cfg.fault = fault;
  fabric::Fabric fab(2, cfg);
  Peer a(fab, 0, tick_config());
  Peer b(fab, 1, tick_config());
  EXPECT_TRUE(a.chan.active());

  ExchangeTrace trace;
  std::byte buf[kPayloadBytes];
  std::size_t sent = 0;
  for (int iter = 0; iter < 200000 && trace.tags.size() < n; ++iter) {
    if (sent < n) {
      fabric::MsgMeta m;
      m.kind = 3;
      m.tag = static_cast<std::uint32_t>(sent);
      m.size = kPayloadBytes;
      fill_payload(buf, m.tag);
      if (a.chan.send(1, buf, m) == fabric::PostResult::Ok) ++sent;
    }
    while (auto c = b.chan.poll()) {
      EXPECT_TRUE(check_payload(c->buffer, c->meta.tag));
      trace.tags.push_back(c->meta.tag);
      if (c->kind == fabric::Cqe::Kind::Recv) b.repost(c->rx_context);
    }
    a.chan.pump();
  }
  // Let the final acks land so the retransmit rings drain.
  for (int iter = 0; iter < 200000 && a.chan.has_inflight(); ++iter) {
    (void)b.chan.poll();
    a.chan.pump();
  }
  trace.drained = !a.chan.has_inflight();
  trace.counters = snapshot(a.ep.stats());
  const auto bc = snapshot(b.ep.stats());
  trace.counters.insert(trace.counters.end(), bc.begin(), bc.end());
  return trace;
}

TEST(Reliability, PassthroughOnReliableFabric) {
  fabric::Fabric fab(2, fabric::test_config());
  Peer a(fab, 0, tick_config());
  Peer b(fab, 1, tick_config());
  EXPECT_FALSE(a.chan.active());

  std::byte buf[kPayloadBytes];
  fill_payload(buf, 0);
  fabric::MsgMeta m;
  m.kind = 3;
  m.size = kPayloadBytes;
  ASSERT_EQ(a.chan.send(1, buf, m), fabric::PostResult::Ok);
  auto c = b.chan.poll();
  ASSERT_TRUE(c.has_value());
  EXPECT_TRUE(check_payload(c->buffer, 0));
  // Passthrough adds no protocol state or wire traffic.
  EXPECT_EQ(a.ep.stats().rel_data_tx.load(), 0u);
  EXPECT_EQ(b.ep.stats().rel_acks_tx.load(), 0u);
  EXPECT_FALSE(a.chan.has_inflight());
}

TEST(Reliability, ForceReliableRunsProtocolWithoutFaults) {
  fabric::FabricConfig cfg = fabric::test_config();
  cfg.force_reliable = true;
  fabric::Fabric fab(2, cfg);
  Peer a(fab, 0, tick_config());
  Peer b(fab, 1, tick_config());
  ASSERT_TRUE(a.chan.active());

  std::byte buf[kPayloadBytes];
  for (std::uint32_t i = 0; i < 16; ++i) {
    fabric::MsgMeta m;
    m.kind = 3;
    m.tag = i;
    m.size = kPayloadBytes;
    fill_payload(buf, i);
    ASSERT_EQ(a.chan.send(1, buf, m), fabric::PostResult::Ok);
  }
  std::uint32_t next = 0;
  for (int iter = 0; iter < 1000 && next < 16; ++iter) {
    while (auto c = b.chan.poll()) {
      EXPECT_EQ(c->meta.tag, next++);
      EXPECT_TRUE(check_payload(c->buffer, c->meta.tag));
      b.repost(c->rx_context);
    }
    a.chan.pump();
  }
  EXPECT_EQ(next, 16u);
  // A loss-free link needs no recovery traffic.
  EXPECT_EQ(a.ep.stats().rel_retransmits.load(), 0u);
  EXPECT_EQ(b.ep.stats().rel_crc_dropped.load(), 0u);
  EXPECT_EQ(b.ep.stats().rel_dup_dropped.load(), 0u);
}

TEST(Reliability, SameSeedReplaysIdenticalFaultsAndCounters) {
  fabric::FaultProfile fp;
  fp.seed = 42;
  fp.drop_rate = 0.10;
  fp.dup_rate = 0.05;
  fp.corrupt_rate = 0.05;
  fp.reorder_rate = 0.05;

  const ExchangeTrace first = run_exchange(fp, 48);
  const ExchangeTrace second = run_exchange(fp, 48);
  ASSERT_EQ(first.tags.size(), 48u);
  EXPECT_TRUE(first.drained);
  // Deterministic replay: identical delivery order AND identical fault +
  // protocol counters on both endpoints.
  EXPECT_EQ(first.tags, second.tags);
  EXPECT_EQ(first.counters, second.counters);

  // A different seed still delivers everything exactly once, in order.
  fp.seed = 1337;
  const ExchangeTrace other = run_exchange(fp, 48);
  ASSERT_EQ(other.tags.size(), 48u);
  EXPECT_EQ(other.tags, first.tags);  // in-order 0..47 either way
  EXPECT_TRUE(other.drained);
}

/// Posts reliable data packets seq 0..kSlots-1 (attempt 0) from rank 0 to
/// rank 1 of a lossy fabric straight through the fabric, with
/// `ctrl_between` header-only acks before each one, and returns the
/// sequence numbers rank 1 received.
std::vector<std::uint32_t> delivered_seqs(std::size_t ctrl_between) {
  fabric::FabricConfig cfg = fabric::test_config();
  cfg.fault.seed = 0x5EEDF00D;
  cfg.fault.drop_rate = 0.25;
  fabric::Fabric fab(2, cfg);
  std::vector<std::byte> slab(kSlots * cfg.mtu);
  for (std::uint64_t i = 0; i < kSlots; ++i)
    fab.endpoint(1).post_rx({slab.data() + i * cfg.mtu, cfg.mtu, i});
  std::byte payload[kPayloadBytes] = {};
  for (std::uint32_t seq = 0; seq < kSlots; ++seq) {
    for (std::size_t c = 0; c < ctrl_between; ++c) {
      fabric::MsgMeta ack;
      ack.rel = fabric::kRelCtrl | fabric::kRelAck;
      EXPECT_EQ(fab.post_send(0, 1, nullptr, ack), fabric::PostResult::Ok);
    }
    fabric::MsgMeta m;
    m.kind = 3;
    m.size = kPayloadBytes;
    m.rel = fabric::kRelSeq;
    m.seq = seq;
    EXPECT_EQ(fab.post_send(0, 1, payload, m), fabric::PostResult::Ok);
  }
  std::vector<std::uint32_t> seqs;
  while (auto cqe = fab.endpoint(1).poll_cq())
    if ((cqe->meta.rel & fabric::kRelCtrl) == 0) seqs.push_back(cqe->meta.seq);
  return seqs;
}

// A reliable data operation's fault roll follows the message (link, seq,
// attempt), not the link slot it lands in. Acks and probes that other
// threads interleave on the same link shift every later slot, so a
// slot-keyed roll drops different messages on every run of one seed.
TEST(Reliability, DataFaultsFollowTheMessageNotTheLinkSlot) {
  const std::vector<std::uint32_t> quiet = delivered_seqs(0);
  ASSERT_GT(quiet.size(), 0u);
  ASSERT_LT(quiet.size(), kSlots) << "the seed must drop some data";
  EXPECT_EQ(delivered_seqs(1), quiet);
  EXPECT_EQ(delivered_seqs(3), quiet);
}

// Each retransmission of a sequence number is a new wire operation with a
// roll of its own, so a dropped message gets through on a later attempt.
TEST(Reliability, RetransmitAttemptsRollAfresh) {
  fabric::FabricConfig cfg = fabric::test_config();
  cfg.fault.seed = 0x5EEDF00D;
  cfg.fault.drop_rate = 0.25;
  fabric::Fabric fab(2, cfg);
  std::vector<std::byte> slab(kSlots * cfg.mtu);
  for (std::uint64_t i = 0; i < kSlots; ++i)
    fab.endpoint(1).post_rx({slab.data() + i * cfg.mtu, cfg.mtu, i});
  std::byte payload[kPayloadBytes] = {};
  std::vector<bool> got(kSlots, false);
  std::size_t retransmitted = 0;
  for (std::uint16_t attempt = 0; attempt < 16; ++attempt) {
    for (std::uint32_t seq = 0; seq < kSlots; ++seq) {
      if (got[seq]) continue;
      fabric::MsgMeta m;
      m.kind = 3;
      m.size = kPayloadBytes;
      m.rel = fabric::kRelSeq;
      m.seq = seq;
      m.attempt = attempt;
      if (attempt > 0) ++retransmitted;
      ASSERT_EQ(fab.post_send(0, 1, payload, m), fabric::PostResult::Ok);
    }
    while (auto cqe = fab.endpoint(1).poll_cq()) got[cqe->meta.seq] = true;
  }
  EXPECT_GT(retransmitted, 0u);
  for (std::uint32_t seq = 0; seq < kSlots; ++seq)
    EXPECT_TRUE(got[seq]) << "seq " << seq << " dropped on every attempt";
}

TEST(Reliability, DropsRecoveredByRetransmit) {
  fabric::FaultProfile fp;
  fp.seed = 7;
  fp.drop_rate = 0.25;
  const ExchangeTrace trace = run_exchange(fp, 64);
  ASSERT_EQ(trace.tags.size(), 64u);
  for (std::uint32_t i = 0; i < 64; ++i) EXPECT_EQ(trace.tags[i], i);
  EXPECT_TRUE(trace.drained);
  EXPECT_GT(trace.counters[0], 0u);  // sender-side faults_dropped
  EXPECT_GT(trace.counters[6], 0u);  // sender-side rel_retransmits
}

TEST(Reliability, CorruptionDetectedByCrcAndRecovered) {
  fabric::FaultProfile fp;
  fp.seed = 11;
  fp.corrupt_rate = 0.30;
  const ExchangeTrace trace = run_exchange(fp, 64);
  ASSERT_EQ(trace.tags.size(), 64u);  // payloads verified inside the pump loop
  EXPECT_TRUE(trace.drained);
  EXPECT_GT(trace.counters[2], 0u);       // faults_corrupted at the sender
  EXPECT_GT(trace.counters[15 + 12], 0u); // receiver-side rel_crc_dropped
}

TEST(Reliability, DuplicatesSuppressed) {
  fabric::FaultProfile fp;
  fp.seed = 23;
  fp.dup_rate = 0.50;
  const ExchangeTrace trace = run_exchange(fp, 64);
  ASSERT_EQ(trace.tags.size(), 64u);  // exactly once each
  for (std::uint32_t i = 0; i < 64; ++i) EXPECT_EQ(trace.tags[i], i);
  EXPECT_GT(trace.counters[1], 0u);       // faults_duplicated at the sender
  EXPECT_GT(trace.counters[15 + 11], 0u); // receiver-side rel_dup_dropped
}

TEST(Reliability, PutsRecoverProbeFirst) {
  fabric::FabricConfig cfg = fabric::test_config();
  cfg.fault.seed = 99;
  cfg.fault.drop_rate = 0.40;
  fabric::Fabric fab(2, cfg);
  Peer a(fab, 0, tick_config());
  Peer b(fab, 1, tick_config());

  constexpr std::size_t kChunks = 64;
  std::vector<std::byte> target(kChunks * kPayloadBytes);
  const fabric::RKey rkey = b.ep.register_memory(target.data(), target.size());

  std::byte buf[kPayloadBytes];
  std::size_t sent = 0;
  std::size_t notified = 0;
  for (int iter = 0; iter < 200000 &&
                     (notified < kChunks || a.chan.has_inflight());
       ++iter) {
    if (sent < kChunks) {
      fabric::MsgMeta m;
      m.kind = 5;
      m.imm = sent;
      fill_payload(buf, static_cast<std::uint32_t>(sent));
      if (a.chan.put(1, rkey, sent * kPayloadBytes, buf, kPayloadBytes,
                     /*notify=*/true, m) == fabric::PostResult::Ok)
        ++sent;
    }
    while (auto c = b.chan.poll()) {
      EXPECT_EQ(c->kind, fabric::Cqe::Kind::PutImm);
      ++notified;
    }
    a.chan.pump();
  }
  ASSERT_EQ(notified, kChunks);
  EXPECT_FALSE(a.chan.has_inflight());
  for (std::uint32_t i = 0; i < kChunks; ++i)
    EXPECT_TRUE(check_payload(target.data() + i * kPayloadBytes, i))
        << "chunk " << i;
  // Lost puts are probed before being re-put.
  EXPECT_GT(a.ep.stats().faults_dropped.load(), 0u);
  EXPECT_GT(a.ep.stats().rel_probes_tx.load(), 0u);
  b.ep.deregister_memory(rkey);
}

TEST(Reliability, BrownoutTriggersWatchdogThenRecovers) {
  fabric::FabricConfig cfg = fabric::test_config();
  cfg.fault.seed = 5;
  cfg.fault.brownout_src = 0;
  cfg.fault.brownout_dst = 1;
  cfg.fault.brownout_start_op = 0;
  cfg.fault.brownout_ops = 20;  // every 0->1 op below index 20 vanishes
  fabric::Fabric fab(2, cfg);

  fabric::ReliabilityConfig rc = tick_config();
  rc.rto_max_ns = 32;
  rc.watchdog_quiet_ns = 64;  // ticks without progress before a state dump
  Peer a(fab, 0, rc);
  Peer b(fab, 1, tick_config());

  std::byte buf[kPayloadBytes];
  for (std::uint32_t i = 0; i < 6; ++i) {
    fabric::MsgMeta m;
    m.kind = 3;
    m.tag = i;
    m.size = kPayloadBytes;
    fill_payload(buf, i);
    ASSERT_EQ(a.chan.send(1, buf, m), fabric::PostResult::Ok);
  }

  std::uint32_t next = 0;
  for (int iter = 0;
       iter < 200000 && (next < 6 || a.chan.has_inflight()); ++iter) {
    while (auto c = b.chan.poll()) {
      EXPECT_EQ(c->meta.tag, next++);
      b.repost(c->rx_context);
    }
    a.chan.pump();
  }
  EXPECT_EQ(next, 6u);
  EXPECT_FALSE(a.chan.has_inflight());
  EXPECT_GE(a.ep.stats().faults_dropped.load(), 20u);
  // The quiet period elapsed at least once mid-brownout.
  EXPECT_GE(a.ep.stats().rel_stall_dumps.load(), 1u);
}

TEST(Reliability, RetransmitRingAppliesBackPressure) {
  fabric::FabricConfig cfg = fabric::test_config();
  cfg.fault.seed = 3;
  cfg.fault.drop_rate = 1.0;  // nothing ever arrives: the ring must fill
  fabric::Fabric fab(2, cfg);
  fabric::ReliabilityConfig rc = tick_config();
  rc.ring_capacity = 8;
  Peer a(fab, 0, rc);
  Peer b(fab, 1, tick_config());

  std::byte buf[kPayloadBytes];
  fabric::MsgMeta m;
  m.kind = 3;
  m.size = kPayloadBytes;
  fill_payload(buf, 0);
  for (std::uint32_t i = 0; i < 8; ++i)
    ASSERT_EQ(a.chan.send(1, buf, m), fabric::PostResult::Ok);
  EXPECT_EQ(a.chan.send(1, buf, m), fabric::PostResult::RetransmitFull);
  EXPECT_TRUE(a.chan.has_inflight());
}

// ---------------------------------------------------------------------------
// Concurrent inline posting over a lossy fabric: the full LCI stack (many
// threads calling send_enq / send_leased on one Queue -> one ProgressServer
// -> reliability channel). Each thread posts at its own call site, so this
// checks the DESIGN §10 ordering argument end to end: the channel numbers
// each post under its link's tx lock, so every message is delivered exactly
// once, intact, and in its sender's order.
// ---------------------------------------------------------------------------

TEST(ConcurrentInlinePosting, ExactlyOnceInSenderOrderAtFivePercentDrop) {
  constexpr int kSenders = 4;
  constexpr int kPerSender = 400;
  constexpr std::uint32_t kTagStride = 1000;

  fabric::FabricConfig cfg = fabric::test_config();
  cfg.fault.seed = 0xFEED5EED;
  cfg.fault.drop_rate = 0.05;
  cfg.fault.dup_rate = 0.01;
  cfg.fault.corrupt_rate = 0.005;
  fabric::Fabric fab(2, cfg);

  lci::QueueConfig qcfg;
  qcfg.device.tx_packets = 128;
  qcfg.device.rx_packets = 256;
  lci::Queue q0(fab, 0, qcfg);
  lci::Queue q1(fab, 1, qcfg);
  lci::ProgressServer server(q0);
  server.start();

  // Message i of a sender: every 10th goes rendezvous through send_enq (the
  // RTS is posted inline, the put by the server), the other odd ones through
  // a leased packet, the rest eager through send_enq.
  const auto is_rdv = [](int i) { return i % 10 == 9; };
  const auto is_leased = [&](int i) { return !is_rdv(i) && i % 2 == 1; };
  const std::size_t rdv_bytes = q0.eager_limit() + 512;
  const auto rdv_byte = [](std::uint32_t tag, std::size_t j) {
    return static_cast<std::byte>((tag + j) & 0xFF);
  };

  std::vector<std::thread> senders;
  for (int t = 0; t < kSenders; ++t) {
    senders.emplace_back([&, t] {
      std::vector<std::byte> big(rdv_bytes);
      lci::Request req;
      for (int i = 0; i < kPerSender; ++i) {
        const std::uint32_t tag = static_cast<std::uint32_t>(t) * kTagStride +
                                  static_cast<std::uint32_t>(i);
        const std::uint64_t small = tag;
        if (is_leased(i)) {
          lci::Packet* p;
          while ((p = q0.lease_tx_packet()) == nullptr) rt::thread_yield();
          std::memcpy(p->data, &small, sizeof(small));
          while (!q0.send_leased(p, sizeof(small), 1, tag, req))
            rt::thread_yield();
        } else if (is_rdv(i)) {
          for (std::size_t j = 0; j < big.size(); ++j) big[j] = rdv_byte(tag, j);
          while (!q0.send_enq(big.data(), big.size(), 1, tag, req))
            rt::thread_yield();
          // `big` is rewritten next time: wait until the put completed.
          while (!req.done()) rt::thread_yield();
        } else {
          while (!q0.send_enq(&small, sizeof(small), 1, tag, req))
            rt::thread_yield();
        }
        // Inline posting: an eager or leased send is done at return.
        EXPECT_TRUE(req.done()) << "tag " << tag;
      }
    });
  }

  std::map<std::uint32_t, int> seen;
  std::array<int, kSenders> next{};  // next expected index per sender
  const int total = kSenders * kPerSender;
  const std::uint64_t deadline = rt::now_ns() + 60ull * 1000 * 1000 * 1000;
  lci::Request in;
  int received = 0;
  while (received < total) {
    ASSERT_LT(rt::now_ns(), deadline)
        << "stalled after " << received << " of " << total << " messages";
    q1.progress();
    if (!q1.recv_deq(in)) {
      rt::thread_yield();
      continue;
    }
    while (!in.done()) q1.progress();
    const auto t = static_cast<std::size_t>(in.tag / kTagStride);
    const int i = static_cast<int>(in.tag % kTagStride);
    ASSERT_LT(t, static_cast<std::size_t>(kSenders)) << "tag " << in.tag;
    EXPECT_EQ(i, next[t]) << "sender " << t << " out of order";
    next[t] = i + 1;
    if (is_rdv(i)) {
      ASSERT_EQ(in.size, rdv_bytes);
      const auto* bytes = static_cast<const std::byte*>(in.buffer);
      bool ok = true;
      for (std::size_t j = 0; j < in.size && ok; ++j)
        ok = bytes[j] == rdv_byte(in.tag, j);
      EXPECT_TRUE(ok) << "rendezvous payload corrupted, tag " << in.tag;
    } else {
      ASSERT_EQ(in.size, sizeof(std::uint64_t));
      std::uint64_t v;
      std::memcpy(&v, in.buffer, sizeof(v));
      EXPECT_EQ(v, in.tag);
    }
    ++seen[in.tag];
    q1.release(in);
    ++received;
  }
  for (auto& s : senders) s.join();
  server.stop();

  // Exactly-once: every (sender, index) tag seen exactly one time.
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(total));
  for (const auto& [tag, count] : seen) EXPECT_EQ(count, 1) << "tag " << tag;
  EXPECT_GT(fab.endpoint(0).stats().rel_retransmits.load(), 0u);
  int leased = 0, rdv = 0;
  for (int i = 0; i < kPerSender; ++i) {
    leased += is_leased(i) ? 1 : 0;
    rdv += is_rdv(i) ? 1 : 0;
  }
  EXPECT_EQ(q0.stats().lease_sends.load(),
            static_cast<std::uint64_t>(kSenders * leased));
  EXPECT_EQ(q0.stats().rdv_sends.load(),
            static_cast<std::uint64_t>(kSenders * rdv));
  EXPECT_EQ(q0.stats().eager_sends.load(),
            static_cast<std::uint64_t>(kSenders * (kPerSender - rdv)));
}

}  // namespace
}  // namespace lcr
