// Unit tests of the communication backends' distinguishing mechanisms:
// MPI-Probe's buffered aggregation layer, MPI-RMA's worst-case window
// accounting, the LCI backend's zero-copy receive path, the THREAD_MULTIPLE
// MPI backend - plus the stream-completion ledger both engines share.
#include <gtest/gtest.h>

#include <cstring>
#include <algorithm>
#include <atomic>
#include <map>
#include <random>
#include <thread>

#include "comm/lci_backend.hpp"
#include "comm/mpi_multi_backend.hpp"
#include "comm/mpi_probe_backend.hpp"
#include "comm/mpi_rma_backend.hpp"
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

TEST(ProbeBackend, AggregatesSubEagerRecordsIntoOneWireMessage) {
  fabric::Fabric fab(2, fabric::test_config());
  comm::BackendOptions opt;
  opt.aggregation_timeout_us = 1000000;  // no timeout flushes in this test
  comm::MpiProbeBackend tx(fab, 0, opt);
  comm::MpiProbeBackend rx(fab, 1, opt);

  // Three small records: buffered, not yet injected.
  for (int i = 0; i < 3; ++i) {
    auto chunk = make_chunk(0, 64);
    ASSERT_TRUE(tx.try_send(1, chunk));
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
  ASSERT_TRUE(tx.try_send(1, chunk));
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
  ASSERT_TRUE(tx.try_send(1, big));
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
    ASSERT_TRUE(b1.try_send(0, chunk));
    b1.flush();
    comm::InMessage msg;
    while (!b1.try_recv(msg)) b1.progress();
    msg.release();
    b1.end_phase();
  });
  auto chunk = make_chunk(0, 128);
  ASSERT_TRUE(b0.try_send(1, chunk));
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
  ASSERT_TRUE(tx.try_send(1, chunk));

  comm::InMessage msg;
  while (!rx.try_recv(msg)) rx.progress();
  ASSERT_EQ(msg.size, expected.size());
  EXPECT_EQ(std::memcmp(msg.data, expected.data(), msg.size), 0);
  // No heap allocation happened for the eager receive (packet view).
  msg.release();
}

TEST(LciBackendUnit, BackPressureSurfacesAsTrySendFalse) {
  fabric::FabricConfig cfg = fabric::test_config();
  cfg.default_rx_buffers = 4;  // tiny receive window
  fabric::Fabric fab(2, cfg);
  comm::BackendOptions opt;
  comm::LciBackend tx(fab, 0, opt);
  comm::LciBackend rx(fab, 1, opt);

  int accepted = 0;
  for (int i = 0; i < 32; ++i) {
    auto chunk = make_chunk(0, 16);
    if (!tx.try_send(1, chunk)) break;
    ++accepted;
  }
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, 32);  // the fixed window pushed back, non-fatally

  // Draining the receiver re-opens the window.
  comm::InMessage msg;
  while (!rx.try_recv(msg)) rx.progress();
  msg.release();
  auto chunk = make_chunk(0, 16);
  EXPECT_TRUE(tx.try_send(1, chunk));
  while (rx.try_recv(msg)) msg.release();
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

    ASSERT_TRUE(tx.try_send(1, wire));
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
  ASSERT_TRUE(tx.try_send(1, chunk));
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

}  // namespace
}  // namespace lcr
