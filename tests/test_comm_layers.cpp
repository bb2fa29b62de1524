// Unit tests of the communication backends' distinguishing mechanisms:
// MPI-Probe's buffered aggregation layer, MPI-RMA's worst-case window
// accounting, the LCI backend's zero-copy receive path and its heap-lease
// sends, the THREAD_MULTIPLE MPI backend - plus the receive-side helpers
// both engines share: the stream-completion ledger, the future-phase stash
// and the direct-write landing regions.
#include <gtest/gtest.h>

#include <cstring>
#include <algorithm>
#include <atomic>
#include <map>
#include <random>
#include <thread>

#include "comm/direct.hpp"
#include "comm/lci_backend.hpp"
#include "comm/mpi_multi_backend.hpp"
#include "comm/mpi_probe_backend.hpp"
#include "comm/mpi_rma_backend.hpp"
#include "comm/phase_stash.hpp"
#include "comm/serializer.hpp"
#include "comm/stream_ledger.hpp"
#include "fabric/fabric.hpp"
#include "runtime/mem_tracker.hpp"

namespace lcr {
namespace {

std::vector<std::byte> make_chunk(std::uint32_t phase, std::uint32_t bytes,
                                  std::uint16_t idx = 0,
                                  std::uint16_t total = 1) {
  std::vector<std::byte> chunk(comm::kChunkHeaderBytes + bytes);
  comm::ChunkHeader header;
  header.phase_id = phase;
  header.chunk_idx = idx;
  header.num_chunks = total;
  header.payload_bytes = bytes;
  header.format = static_cast<std::uint8_t>(comm::WireFormat::Raw);
  header.finalize();
  std::memcpy(chunk.data(), &header, sizeof(header));
  for (std::uint32_t i = 0; i < bytes; ++i)
    chunk[comm::kChunkHeaderBytes + i] = static_cast<std::byte>(i & 0xFF);
  return chunk;
}

/// Sends `chunk` through the lease protocol: acquire, copy in, commit. A
/// lease the backend pushed back on is abandoned.
bool send_chunk(comm::Backend& b, int dst,
                const std::vector<std::byte>& chunk) {
  comm::BufferLease lease = b.acquire(dst, chunk.size());
  std::memcpy(lease.data, chunk.data(), chunk.size());
  if (b.commit(dst, lease, chunk.size())) return true;
  b.abandon(lease);
  return false;
}

TEST(ProbeBackend, AggregatesSubEagerRecordsIntoOneWireMessage) {
  fabric::Fabric fab(2, fabric::test_config());
  comm::BackendOptions opt;
  opt.aggregation_timeout_us = 1000000;  // no timeout flushes in this test
  comm::MpiProbeBackend tx(fab, 0, opt);
  comm::MpiProbeBackend rx(fab, 1, opt);

  // Three small records: buffered, not yet injected.
  for (int i = 0; i < 3; ++i) {
    auto chunk = make_chunk(0, 64);
    ASSERT_TRUE(send_chunk(tx, 1, chunk));
  }
  EXPECT_EQ(fab.endpoint(0).stats().sends.load(), 0u);

  // flush() sends ONE aggregate for all three records.
  tx.flush();
  EXPECT_EQ(fab.endpoint(0).stats().sends.load(), 1u);

  // The receiver splits the aggregate back into three messages.
  int got = 0;
  comm::InMessage msg;
  for (int spin = 0; spin < 1000 && got < 3; ++spin) {
    rx.progress();
    tx.progress();
    while (rx.try_recv(msg)) {
      EXPECT_EQ(msg.src, 0);
      EXPECT_EQ(msg.header().payload_bytes, 64u);
      msg.release();
      ++got;
    }
  }
  EXPECT_EQ(got, 3);
}

TEST(ProbeBackend, TimeoutFlushesAgedAggregates) {
  fabric::Fabric fab(2, fabric::test_config());
  comm::BackendOptions opt;
  opt.aggregation_timeout_us = 1000;  // 1ms
  comm::MpiProbeBackend tx(fab, 0, opt);
  comm::MpiProbeBackend rx(fab, 1, opt);

  auto chunk = make_chunk(0, 32);
  ASSERT_TRUE(send_chunk(tx, 1, chunk));
  EXPECT_EQ(fab.endpoint(0).stats().sends.load(), 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  tx.progress();  // "until the oldest buffered message times out"
  EXPECT_EQ(fab.endpoint(0).stats().sends.load(), 1u);
}

TEST(ProbeBackend, LargeRecordsBypassAggregationPromptly) {
  fabric::Fabric fab(2, fabric::test_config());
  comm::BackendOptions opt;
  opt.aggregation_timeout_us = 1000000;
  comm::MpiProbeBackend tx(fab, 0, opt);
  comm::MpiProbeBackend rx(fab, 1, opt);

  auto big = make_chunk(0, static_cast<std::uint32_t>(tx.chunk_bytes()));
  ASSERT_TRUE(send_chunk(tx, 1, big));
  // Items at/above the eager limit are flushed immediately.
  EXPECT_GE(fab.endpoint(0).stats().sends.load(), 1u);
}

TEST(RmaBackend, WindowBytesMatchWorstCaseBound) {
  fabric::Fabric fab(2, fabric::test_config());
  rt::MemTracker trackers[2];
  comm::BackendOptions opt0;
  opt0.tracker = &trackers[0];
  comm::BackendOptions opt1;
  opt1.tracker = &trackers[1];
  comm::MpiRmaBackend b0(fab, 0, opt0);
  comm::MpiRmaBackend b1(fab, 1, opt1);

  comm::PhaseSpec spec;
  spec.phase_id = 0;
  spec.pattern_key = 1;
  spec.max_send_bytes = {0, 4096};
  spec.max_recv_bytes = {0, 4096};
  spec.send_to = {1};
  spec.recv_from = {1};
  comm::PhaseSpec spec1 = spec;
  spec1.send_to = {0};
  spec1.recv_from = {0};
  spec1.max_send_bytes = {4096, 0};
  spec1.max_recv_bytes = {4096, 0};

  // Window creation is collective: run both begin_phases concurrently.
  std::thread t1([&] { b1.begin_phase(spec1); });
  b0.begin_phase(spec);
  t1.join();

  // Each host preallocated >= its worst-case receive buffer (+ the dummy
  // self slot), tracked for the Fig-5 accounting.
  EXPECT_GE(b0.window_bytes(), 4096u);
  EXPECT_GE(trackers[0].peak(), 4096u);
  EXPECT_GE(b1.window_bytes(), 4096u);

  // Exchange one message each so the epochs close cleanly.
  std::thread t2([&] {
    auto chunk = make_chunk(0, 128);
    ASSERT_TRUE(send_chunk(b1, 0, chunk));
    b1.flush();
    comm::InMessage msg;
    while (!b1.try_recv(msg)) b1.progress();
    msg.release();
    b1.end_phase();
  });
  auto chunk = make_chunk(0, 128);
  ASSERT_TRUE(send_chunk(b0, 1, chunk));
  b0.flush();
  comm::InMessage msg;
  while (!b0.try_recv(msg)) b0.progress();
  EXPECT_EQ(msg.header().payload_bytes, 128u);
  msg.release();
  b0.end_phase();
  t2.join();
}

TEST(LciBackendUnit, ReceiveIsZeroCopyIntoPacket) {
  fabric::Fabric fab(2, fabric::test_config());
  comm::BackendOptions opt;
  comm::LciBackend tx(fab, 0, opt);
  comm::LciBackend rx(fab, 1, opt);

  auto chunk = make_chunk(3, 256);
  const std::vector<std::byte> expected = chunk;
  ASSERT_TRUE(send_chunk(tx, 1, chunk));

  comm::InMessage msg;
  while (!rx.try_recv(msg)) rx.progress();
  ASSERT_EQ(msg.size, expected.size());
  EXPECT_EQ(std::memcmp(msg.data, expected.data(), msg.size), 0);
  // No heap allocation happened for the eager receive (packet view).
  msg.release();
}

TEST(LciBackendUnit, BackPressureSurfacesAsCommitFalse) {
  fabric::FabricConfig cfg = fabric::test_config();
  cfg.default_rx_buffers = 4;  // tiny receive window
  fabric::Fabric fab(2, cfg);
  comm::BackendOptions opt;
  comm::LciBackend tx(fab, 0, opt);
  comm::LciBackend rx(fab, 1, opt);

  int accepted = 0;
  for (int i = 0; i < 32; ++i) {
    auto chunk = make_chunk(0, 16);
    if (!send_chunk(tx, 1, chunk)) break;
    ++accepted;
  }
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, 32);  // the fixed window pushed back, non-fatally

  // Draining the receiver re-opens the window.
  comm::InMessage msg;
  while (!rx.try_recv(msg)) rx.progress();
  msg.release();
  auto chunk = make_chunk(0, 16);
  EXPECT_TRUE(send_chunk(tx, 1, chunk));
  while (rx.try_recv(msg)) msg.release();
}

/// A lease above the eager limit is heap memory, and commit() sends it by
/// rendezvous straight from that buffer, which the backend keeps alive
/// until the transfer completes.
TEST(LciBackendUnit, HeapLeaseAboveEagerLimitSendsByRendezvous) {
  fabric::Fabric fab(2, fabric::test_config());
  rt::MemTracker tracker;
  comm::BackendOptions opt;
  opt.tracker = &tracker;
  comm::LciBackend tx(fab, 0, opt);
  comm::LciBackend rx(fab, 1, opt);

  const auto payload = static_cast<std::uint32_t>(3 * tx.chunk_bytes());
  const std::vector<std::byte> chunk = make_chunk(4, payload);
  comm::BufferLease lease = tx.acquire(1, chunk.size());
  ASSERT_TRUE(lease);
  EXPECT_FALSE(lease.pooled) << "no eager packet holds a rendezvous payload";
  std::memcpy(lease.data, chunk.data(), chunk.size());
  tracker.on_alloc(chunk.size());  // the engine accounts before sending
  ASSERT_TRUE(tx.commit(1, lease, chunk.size()));
  EXPECT_FALSE(lease) << "a committed lease is emptied";

  comm::InMessage msg;
  bool got = false;
  for (int spin = 0; spin < 100000 && !got; ++spin) {
    tx.progress();
    rx.progress();
    got = rx.try_recv(msg);
  }
  ASSERT_TRUE(got) << "rendezvous never completed";
  ASSERT_EQ(msg.size, chunk.size());
  EXPECT_EQ(std::memcmp(msg.data, chunk.data(), msg.size), 0);
  msg.release();
  for (int spin = 0; spin < 1000 && tracker.current() != 0; ++spin)
    tx.progress();
  EXPECT_EQ(tracker.current(), 0u) << "send buffer never reported freed";
}

/// Gather leases may not take the tx pool below its floor (the RTS/RTR
/// control packets need it): there acquire() hands out a heap lease, and
/// commit() sends it with one copy into an eager packet.
TEST(LciBackendUnit, LeaseAtPoolFloorFallsBackToHeapAndStillSends) {
  fabric::Fabric fab(2, fabric::test_config());
  comm::BackendOptions opt;
  comm::LciBackend tx(fab, 0, opt);
  comm::LciBackend rx(fab, 1, opt);

  const std::vector<std::byte> chunk = make_chunk(6, 48);
  std::vector<comm::BufferLease> held;
  comm::BufferLease lease;
  for (int i = 0; i < 1024; ++i) {
    lease = tx.acquire(1, chunk.size());
    if (!lease.pooled) break;
    held.push_back(std::move(lease));
  }
  ASSERT_FALSE(held.empty());
  ASSERT_FALSE(lease.pooled) << "the pool never reached its lease floor";
  std::memcpy(lease.data, chunk.data(), chunk.size());
  ASSERT_TRUE(tx.commit(1, lease, chunk.size()));

  comm::InMessage msg;
  while (!rx.try_recv(msg)) rx.progress();
  ASSERT_EQ(msg.size, chunk.size());
  EXPECT_EQ(std::memcmp(msg.data, chunk.data(), msg.size), 0);
  msg.release();
  for (comm::BufferLease& l : held) tx.abandon(l);
}

/// Cross-format interop: every adaptive encoding shipped over a real backend
/// decodes to the identical record set on the receiver. The one-byte format
/// tag in the chunk header is all the negotiation there is, so a sender may
/// switch formats per chunk and any receiver keeps up.
TEST(WireInterop, ForcedFormatsDecodeIdenticallyAcrossTheWire) {
  fabric::Fabric fab(2, fabric::test_config());
  comm::BackendOptions opt;
  comm::LciBackend tx(fab, 0, opt);
  comm::LciBackend rx(fab, 1, opt);

  constexpr std::uint32_t n = 96;
  std::vector<graph::VertexId> shared(n);
  for (std::uint32_t i = 0; i < n; ++i) shared[i] = i;
  rt::ConcurrentBitset dirty(n);
  std::vector<std::uint32_t> labels(n, 0);
  for (std::uint32_t i = 0; i < n; i += 3) {
    dirty.set(i);
    labels[i] = 1000 + i;
  }
  std::map<std::uint32_t, std::uint32_t> expected;
  for (std::uint32_t pos = 0; pos < n; ++pos)
    if (dirty.test(pos)) expected[pos] = labels[pos];

  for (const comm::WireFormat format :
       {comm::WireFormat::Sparse, comm::WireFormat::Varint,
        comm::WireFormat::Dense}) {
    comm::set_wire_format_override(format);
    std::vector<std::byte> wire(comm::kChunkHeaderBytes);
    const comm::EncodedChunk enc = comm::encode_dirty_range<std::uint32_t>(
        shared, dirty, labels.data(), 0, n, [&](std::size_t need) {
          wire.resize(comm::kChunkHeaderBytes + need);
          return wire.data() + comm::kChunkHeaderBytes;
        });
    comm::set_wire_format_override(std::nullopt);
    wire.resize(comm::kChunkHeaderBytes + enc.bytes);
    ASSERT_EQ(enc.format, format);

    comm::ChunkHeader header;
    header.phase_id = 1;
    header.payload_bytes = static_cast<std::uint32_t>(enc.bytes);
    header.base_pos = 0;
    header.span = n;
    header.format = static_cast<std::uint8_t>(enc.format);
    if (enc.format == comm::WireFormat::Dense && enc.all_set)
      header.flags = comm::kFlagDenseFull;
    header.finalize();
    std::memcpy(wire.data(), &header, sizeof(header));

    ASSERT_TRUE(send_chunk(tx, 1, wire));
    comm::InMessage msg;
    while (!rx.try_recv(msg)) rx.progress();
    const comm::ChunkHeader got_header = msg.header();
    ASSERT_TRUE(got_header.valid());
    EXPECT_EQ(static_cast<comm::WireFormat>(got_header.format), format);
    std::map<std::uint32_t, std::uint32_t> got;
    ASSERT_TRUE(comm::decode_chunk<std::uint32_t>(
        got_header, msg.payload(), shared.size(),
        [&](std::uint32_t pos, const std::uint32_t& v) { got[pos] = v; }));
    msg.release();
    EXPECT_EQ(got, expected);
  }
}

/// The THREAD_MULTIPLE backend is callable from every thread, never chunks
/// and never refuses a send; a message round-trips through probe + recv.
TEST(MpiMultiBackendUnit, ThreadSafeUnchunkedRoundTrip) {
  fabric::Fabric fab(2, fabric::test_config());
  rt::MemTracker tracker;
  comm::BackendOptions opt;
  opt.tracker = &tracker;
  comm::MpiMultiBackend tx(fab, 0, opt, /*callers=*/2);
  comm::MpiMultiBackend rx(fab, 1, opt, /*callers=*/2);
  EXPECT_TRUE(tx.thread_safe_send());
  EXPECT_TRUE(tx.thread_safe_recv());
  EXPECT_EQ(tx.chunk_bytes(), 0u);

  std::vector<std::byte> chunk = make_chunk(/*phase=*/3, /*bytes=*/100);
  tracker.on_alloc(chunk.size());  // the engine accounts before sending
  ASSERT_TRUE(send_chunk(tx, 1, chunk));
  comm::InMessage msg;
  while (!rx.try_recv(msg)) {
    rx.progress();
    tx.progress();
  }
  EXPECT_EQ(msg.src, 0);
  EXPECT_EQ(msg.size, comm::kChunkHeaderBytes + 100);
  EXPECT_EQ(msg.header().phase_id, 3u);
  EXPECT_EQ(msg.payload()[99], static_cast<std::byte>(99));
  msg.release();
  tx.progress();
  EXPECT_EQ(tracker.current(), 0u);
}

// ---------------------------------------------------------------------------
// StreamLedger: receive-side completion of one streamed exchange, shared by
// the Abelian phase and the Gemini round.
// ---------------------------------------------------------------------------

comm::ChunkHeader data_header() {
  comm::ChunkHeader h;
  h.payload_bytes = 64;
  h.base_pos = 128;  // a record offset on data chunks, never a put count
  h.num_chunks = 0;  // streaming: the total arrives in the tail
  return h;
}

/// Header-only tail: `chunks` counts the data chunks plus the tail itself.
comm::ChunkHeader tail_header(std::uint16_t chunks,
                              std::uint32_t direct_puts = 0) {
  comm::ChunkHeader h;
  h.payload_bytes = 0;
  h.num_chunks = chunks;
  h.base_pos = direct_puts;
  return h;
}

TEST(StreamLedger, TailLandingBeforeItsDataChunksWaitsForThem) {
  comm::StreamLedger ledger;
  ledger.arm(/*id=*/7, /*num_hosts=*/2, /*expected_peers=*/1);
  EXPECT_EQ(ledger.id(), 7u);
  ledger.note_chunk(1, tail_header(3));  // 2 data chunks + this tail
  EXPECT_FALSE(ledger.complete());
  ledger.note_chunk(1, data_header());
  EXPECT_FALSE(ledger.complete());
  ledger.note_chunk(1, data_header());
  EXPECT_TRUE(ledger.complete());

  // A single-message sender (num_chunks == 1 with payload, no tail): its
  // base_pos is a record offset, not a put count.
  comm::ChunkHeader single = data_header();
  single.num_chunks = 1;
  ledger.arm(8, 2, 1);
  ledger.note_chunk(1, single);
  EXPECT_TRUE(ledger.complete());
}

TEST(StreamLedger, DirectPutLandingBeforeItsTailIsCounted) {
  comm::StreamLedger ledger;
  ledger.arm(1, 2, 1);
  ledger.note_direct(1);
  ledger.note_direct(1);  // direct_got (2) > direct_expected (0, no tail)
  EXPECT_FALSE(ledger.complete()) << "completed before the tail landed";
  ledger.note_chunk(1, tail_header(1, /*direct_puts=*/2));
  EXPECT_TRUE(ledger.complete());

  // The reverse order: the tail announces a put that has not landed yet.
  ledger.arm(2, 2, 1);
  ledger.note_direct(1);
  ledger.note_chunk(1, tail_header(1, /*direct_puts=*/2));
  EXPECT_FALSE(ledger.complete());
  ledger.note_direct(1);
  EXPECT_TRUE(ledger.complete());
}

TEST(StreamLedger, NoExpectedPeersIsCompleteAtArm) {
  comm::StreamLedger ledger;
  ledger.arm(3, /*num_hosts=*/1, /*expected_peers=*/0);
  EXPECT_TRUE(ledger.complete());
  ledger.arm(4, 4, 3);  // re-arming resets completion
  EXPECT_FALSE(ledger.complete());
  EXPECT_EQ(ledger.id(), 4u);
}

TEST(StreamLedger, PeerCountsTowardCompletionExactlyOnce) {
  comm::StreamLedger ledger;
  ledger.arm(5, /*num_hosts=*/3, /*expected_peers=*/2);
  ledger.note_chunk(1, tail_header(1));
  EXPECT_FALSE(ledger.complete());
  // Stray notes from the already-balanced peer must not stand in for the
  // peer still outstanding.
  ledger.note_direct(1);
  ledger.note_chunk(1, data_header());
  ledger.note_chunk(1, tail_header(1));
  EXPECT_FALSE(ledger.complete());
  ledger.note_chunk(2, tail_header(1));
  EXPECT_TRUE(ledger.complete());
}

/// 4 threads note one shuffled round's chunks and puts at once, several
/// notes per peer racing on each other. One event is held back: the ledger
/// must not complete without it (a peer counted twice would), and must
/// complete with it.
TEST(StreamLedger, ConcurrentNotesCompleteExactlyWhenBalanced) {
  constexpr int kHosts = 5;  // rank 0 receives from peers 1..4
  constexpr int kThreads = 4;
  constexpr int kDataChunks = 16;
  constexpr std::uint32_t kPuts = 3;
  struct Event {
    int src;
    bool direct;
    comm::ChunkHeader header;
  };
  std::mt19937 rng(20261017);
  comm::StreamLedger ledger;
  for (std::uint32_t round = 0; round < 50; ++round) {
    std::vector<Event> events;
    for (int src = 1; src < kHosts; ++src) {
      for (int c = 0; c < kDataChunks; ++c)
        events.push_back({src, false, data_header()});
      events.push_back({src, false, tail_header(kDataChunks + 1, kPuts)});
      for (std::uint32_t d = 0; d < kPuts; ++d)
        events.push_back({src, true, comm::ChunkHeader{}});
    }
    std::shuffle(events.begin(), events.end(), rng);
    const Event held = events.back();
    events.pop_back();

    ledger.arm(round, kHosts, kHosts - 1);
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        for (std::size_t i = static_cast<std::size_t>(t); i < events.size();
             i += kThreads) {
          const Event& e = events[i];
          if (e.direct)
            ledger.note_direct(e.src);
          else
            ledger.note_chunk(e.src, e.header);
        }
      });
    }
    for (auto& th : threads) th.join();
    ASSERT_FALSE(ledger.complete()) << "round " << round;
    if (held.direct)
      ledger.note_direct(held.src);
    else
      ledger.note_chunk(held.src, held.header);
    ASSERT_TRUE(ledger.complete()) << "round " << round;
  }
}

// ---------------------------------------------------------------------------
// PhaseStash: the future-phase stash both engines park raced-ahead chunks
// and direct signals in.
// ---------------------------------------------------------------------------

/// A received chunk whose release() bumps `releases`, standing in for the
/// transport memory (an rx packet) the chunk sits in.
comm::InMessage transport_chunk(std::vector<std::byte>& wire, int& releases) {
  comm::InMessage msg;
  msg.src = 1;
  msg.data = wire.data();
  msg.size = wire.size();
  msg.release = [&releases] { ++releases; };
  return msg;
}

TEST(PhaseStash, WindowEdgeIsInclusive) {
  std::atomic<std::uint64_t> drops{0};
  comm::PhaseStash stash(8, comm::StashCounters{nullptr, &drops, nullptr});
  std::vector<std::byte> wire = make_chunk(0, 8);
  int releases = 0;
  const std::uint32_t current = 10;
  EXPECT_TRUE(stash.park(transport_chunk(wire, releases),
                         current + comm::kStashPhaseWindow, current));
  EXPECT_FALSE(stash.park(transport_chunk(wire, releases),
                          current + comm::kStashPhaseWindow + 1, current));
  EXPECT_FALSE(stash.park(transport_chunk(wire, releases), current, current))
      << "the current phase is never stashed";
  EXPECT_EQ(drops.load(), 2u);
  EXPECT_EQ(releases, 3) << "every path frees the transport memory";
}

TEST(PhaseStash, CapDropsAreCountedAndPeakTracked) {
  std::atomic<std::uint64_t> peak{0}, drops{0};
  comm::PhaseStash stash(3, comm::StashCounters{&peak, &drops, nullptr});
  std::vector<std::byte> wire = make_chunk(2, 8);
  int releases = 0;
  int parked = 0;
  for (int i = 0; i < 5; ++i)
    parked += stash.park(transport_chunk(wire, releases), 2, 0) ? 1 : 0;
  EXPECT_EQ(parked, 3);
  EXPECT_EQ(peak.load(), 3u);
  EXPECT_EQ(drops.load(), 2u);
  comm::InMessage out;
  ASSERT_TRUE(stash.pop(2, out));  // room again
  EXPECT_TRUE(stash.park(transport_chunk(wire, releases), 2, 0));
  EXPECT_EQ(peak.load(), 3u);
}

TEST(PhaseStash, ReleasesTransportAtParkNotAtPop) {
  comm::PhaseStash stash(8, comm::StashCounters{});
  std::vector<std::byte> wire = make_chunk(5, 40);
  const std::vector<std::byte> sent = wire;
  int releases = 0;
  ASSERT_TRUE(stash.park(transport_chunk(wire, releases), 5, 4));
  EXPECT_EQ(releases, 1) << "the rx packet must not stay pinned";
  std::fill(wire.begin(), wire.end(), std::byte{0});  // packet reused

  comm::InMessage out;
  EXPECT_FALSE(stash.pop(4, out)) << "not its phase yet";
  ASSERT_TRUE(stash.pop(5, out));
  EXPECT_EQ(out.src, 1);
  ASSERT_EQ(out.size, sent.size());
  EXPECT_EQ(std::memcmp(out.data, sent.data(), out.size), 0)
      << "the stash holds its own copy";
  ASSERT_TRUE(out.release);
  out.release();
  EXPECT_EQ(releases, 1) << "pop must not release the transport again";
  EXPECT_FALSE(stash.pop(5, out));
}

TEST(PhaseStash, StaleEntriesArePurgedAndCounted) {
  std::atomic<std::uint64_t> chunk_drops{0}, signal_drops{0};
  comm::PhaseStash stash(
      8, comm::StashCounters{nullptr, &chunk_drops, &signal_drops});
  std::vector<std::byte> wire = make_chunk(0, 8);
  int releases = 0;
  ASSERT_TRUE(stash.park(transport_chunk(wire, releases), 3, 1));
  ASSERT_TRUE(stash.park(transport_chunk(wire, releases), 3, 1));
  ASSERT_TRUE(stash.park(transport_chunk(wire, releases), 5, 1));
  comm::DirectSignal sig;
  sig.phase_id = 2;
  ASSERT_TRUE(stash.park(sig, 1));
  sig.phase_id = 6;
  ASSERT_TRUE(stash.park(sig, 1));

  stash.purge(4);  // phases 2 and 3 are behind
  EXPECT_EQ(chunk_drops.load(), 2u);
  EXPECT_EQ(signal_drops.load(), 1u);
  comm::InMessage out;
  EXPECT_FALSE(stash.pop(3, out));
  EXPECT_TRUE(stash.pop(5, out));
  comm::DirectSignal got;
  EXPECT_FALSE(stash.pop(2, got));
  ASSERT_TRUE(stash.pop(6, got));
  EXPECT_EQ(got.phase_id, 6u);

  sig.phase_id = 3;
  EXPECT_FALSE(stash.park(sig, 4)) << "a stale signal is dropped on arrival";
  EXPECT_EQ(signal_drops.load(), 2u);
}

/// An entry left over from an earlier phase must not hide a current one
/// parked behind it.
TEST(PhaseStash, StaleEntryDoesNotBlockCurrentOne) {
  comm::PhaseStash stash(8, comm::StashCounters{});
  std::vector<std::byte> wire = make_chunk(0, 8);
  int releases = 0;
  ASSERT_TRUE(stash.park(transport_chunk(wire, releases), 1, 0));
  ASSERT_TRUE(stash.park(transport_chunk(wire, releases), 2, 0));
  comm::DirectSignal sig;
  sig.phase_id = 1;
  ASSERT_TRUE(stash.park(sig, 0));
  sig.phase_id = 2;
  sig.src = 7;
  ASSERT_TRUE(stash.park(sig, 0));
  // The engine skipped phase 1 (no purge yet): phase 2's entries still pop.
  comm::InMessage out;
  EXPECT_TRUE(stash.pop(2, out));
  comm::DirectSignal got;
  ASSERT_TRUE(stash.pop(2, got));
  EXPECT_EQ(got.src, 7);
}

// ---------------------------------------------------------------------------
// LandingRegions: the receive-side direct-write table and validation ladder
// both engines use.
// ---------------------------------------------------------------------------

class LandingRegions : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kPattern = 0x55;
  static constexpr std::uint32_t kPhase = 4;
  static constexpr std::size_t kCapacity = 256;

  void SetUp() override {
    tx_ = std::make_unique<comm::LciBackend>(fab_, 0, comm::BackendOptions{});
    backend_ =
        std::make_unique<comm::LciBackend>(fab_, 1, comm::BackendOptions{});
    ASSERT_TRUE(landing_.ensure(*backend_, kPattern, /*src=*/0, kCapacity));
    ASSERT_TRUE(dir_.lookup(1, 0, kPattern, region_));
  }

  void TearDown() override {
    if (backend_ != nullptr) landing_.close(backend_);
  }

  /// Puts `frame` into host 1's region for host 0 and returns the signal
  /// that lands.
  comm::DirectSignal put(const std::vector<std::byte>& frame) {
    comm::DirectPutStatus st = comm::DirectPutStatus::Retry;
    for (int i = 0; i < 1000 && st == comm::DirectPutStatus::Retry; ++i) {
      st = tx_->direct_put(1, region_, frame.data(), frame.size(), kPhase,
                           kPattern);
      tx_->progress();
      backend_->progress();
    }
    EXPECT_EQ(st, comm::DirectPutStatus::Ok);
    comm::DirectSignal sig;
    for (int i = 0; i < 4000; ++i) {
      tx_->progress();
      backend_->progress();
      if (backend_->poll_direct(sig)) return sig;
    }
    ADD_FAILURE() << "signal never landed";
    return sig;
  }

  comm::LandingRegions::Verdict land(const comm::DirectSignal& sig) {
    comm::InMessage msg;
    comm::ChunkHeader header;
    return landing_.land(sig, kPattern, msg, header);
  }

  fabric::Fabric fab_{2, fabric::test_config()};
  rt::MemTracker tracker_;
  comm::DirectDirectory dir_;
  comm::LandingRegions landing_{dir_, /*host=*/1, &tracker_};
  std::unique_ptr<comm::LciBackend> tx_;
  std::unique_ptr<comm::Backend> backend_;  // host 1, owns the regions
  comm::DirectRegion region_;
};

TEST_F(LandingRegions, GenuinePutIsAcceptedInPlace) {
  EXPECT_EQ(tracker_.current(), kCapacity) << "the region is charged";
  const std::vector<std::byte> frame = make_chunk(kPhase, 100);
  const comm::DirectSignal sig = put(frame);
  comm::InMessage msg;
  comm::ChunkHeader header;
  ASSERT_EQ(landing_.land(sig, kPattern, msg, header),
            comm::LandingRegions::Verdict::Accept);
  EXPECT_EQ(msg.src, 0);
  EXPECT_EQ(msg.size, frame.size());
  EXPECT_FALSE(msg.release) << "an engine-owned region has nothing to free";
  EXPECT_EQ(header.payload_bytes, 100u);
  EXPECT_EQ(std::memcmp(msg.data, frame.data(), frame.size()), 0);
  EXPECT_TRUE(landing_.ensure(*backend_, kPattern, 0, kCapacity));
  EXPECT_EQ(tracker_.current(), kCapacity) << "ensure() registers once";
}

TEST_F(LandingRegions, SignalsOffTheLiveRegistrationAreStale) {
  const comm::DirectSignal good = put(make_chunk(kPhase, 16));
  ASSERT_EQ(land(good), comm::LandingRegions::Verdict::Accept);

  comm::DirectSignal sig = good;
  sig.generation = good.generation + 1;
  EXPECT_EQ(land(sig), comm::LandingRegions::Verdict::Stale);
  sig = good;
  sig.pattern_key = kPattern + 1;
  EXPECT_EQ(land(sig), comm::LandingRegions::Verdict::Stale);
  comm::InMessage msg;
  comm::ChunkHeader header;
  EXPECT_EQ(landing_.land(good, kPattern + 1, msg, header),
            comm::LandingRegions::Verdict::Stale)
      << "a pattern other than the phase's";
  sig = good;
  sig.src = 3;
  EXPECT_EQ(land(sig), comm::LandingRegions::Verdict::Stale);
  sig = good;
  sig.bytes = comm::kChunkHeaderBytes - 1;
  EXPECT_EQ(land(sig), comm::LandingRegions::Verdict::Stale);
  sig = good;
  sig.bytes = kCapacity + 1;
  EXPECT_EQ(land(sig), comm::LandingRegions::Verdict::Stale);
}

TEST_F(LandingRegions, GarbledFrameOfALivePutIsRejectedButCounted) {
  // A header whose self-check fails: the put itself is genuine.
  std::vector<std::byte> frame = make_chunk(kPhase, 32);
  frame[8] ^= std::byte{0x40};  // flip a bit of base_pos after finalize()
  EXPECT_EQ(land(put(frame)), comm::LandingRegions::Verdict::Garbled);

  // A valid header naming another phase, and one disagreeing with the size.
  EXPECT_EQ(land(put(make_chunk(kPhase + 1, 32))),
            comm::LandingRegions::Verdict::Garbled);
  std::vector<std::byte> longer = make_chunk(kPhase, 32);
  longer.resize(longer.size() + 8);
  EXPECT_EQ(land(put(longer)), comm::LandingRegions::Verdict::Garbled);
}

TEST_F(LandingRegions, CloseRetractsRefundsAndQuiescesFirst) {
  landing_.close(backend_);
  EXPECT_EQ(backend_, nullptr) << "the backend goes before the buffers";
  comm::DirectRegion out;
  EXPECT_FALSE(dir_.lookup(1, 0, kPattern, out)) << "entry not retracted";
  EXPECT_EQ(tracker_.current(), 0u);
}

}  // namespace
}  // namespace lcr
