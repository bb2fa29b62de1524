// Gemini-style distributed graph engine (paper Sections II, IV-B1).
//
// Gemini partitions with a blocked edge-cut ("a simple blocked edge-cut
// partitioning policy that tries to balance the assigned edges across
// hosts") and, unlike Abelian's proxy synchronization, streams *signal
// records* (destination global id, value) from many threads directly to the
// destination's owner, which applies the *slot* (combine) function.
//
// Communication style is what Section IV-B1 highlights: "Gemini ... relies
// on communication from many threads with MPI_THREAD_MULTIPLE ... In
// particular, MPI_PROBE is used frequently inside a receiving thread to
// receive incoming messages (traversing nodes from different hosts and with
// different sizes)". The engine drives a plain comm::Backend from every
// compute thread, and the two CommKinds reproduce exactly that contrast:
//
//   * MpiProbeMulti - comm::MpiMultiBackend, mpilite under THREAD_MULTIPLE:
//     every compute thread isends its own buffers (paying the global lock)
//     and probes/receives with wildcards (paying matching-queue traversal).
//   * Lci - the factory's LCI backend, the paper's "simple modifications ...
//     such that each sending/receiving thread uses LCI Queue instead of
//     MPI": send_enq / recv_deq from every thread, one LCI server thread for
//     progress.
//
// Round completion is the same comm::StreamLedger the Abelian engine uses.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "abelian/cluster.hpp"
#include "apps/atomic_ops.hpp"
#include "apps/pagerank_pull.hpp"
#include "apps/round_loop.hpp"
#include "comm/backend.hpp"
#include "comm/direct.hpp"
#include "comm/message.hpp"
#include "comm/phase_stash.hpp"
#include "comm/stream_ledger.hpp"
#include "gemini/dense_combine.hpp"
#include "graph/dist_graph.hpp"
#include "runtime/aux_thread.hpp"
#include "runtime/bitset.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/cpu_relax.hpp"
#include "runtime/mem_tracker.hpp"
#include "runtime/mpmc_queue.hpp"
#include "runtime/spinlock.hpp"
#include "runtime/thread_team.hpp"
#include "runtime/timer.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace lcr::gemini {

enum class CommKind : std::uint8_t { Lci, MpiProbeMulti };

const char* to_string(CommKind k);

struct GeminiConfig {
  CommKind comm = CommKind::Lci;
  std::size_t compute_threads = 2;
  std::string mpi_personality = "default";
  rt::MemTracker* tracker = nullptr;
  /// Record-batch bytes per (thread, destination) before a chunk is sent.
  std::size_t batch_bytes = 8 * 1024;
  /// Dual-mode switch: when the frontier's local out-edges exceed this
  /// fraction of the host's local edges, push rounds run in *dense* mode -
  /// updates to the same destination are pre-combined locally and sent once
  /// per destination, instead of one signal per edge (Gemini's sparse/dense
  /// signal-slot adaptivity, which also counts active edges, not vertices).
  /// Set > 1.0 to force sparse, 0.0 to force dense.
  double dense_threshold = 0.05;
  /// One-sided direct-write sync (DESIGN.md §15): dense rounds put their
  /// pre-combined per-destination frame straight into the destination's
  /// registered region instead of streaming record batches. Auto/Forced
  /// behave identically here (dense rounds are explicitly known, no
  /// predictor needed); Off disables. Honors env LCR_DIRECT_WRITE.
  comm::DirectWriteMode direct_write = comm::DirectWriteMode::Auto;
};

struct GeminiStats {
  std::uint64_t rounds = 0;
  std::atomic<std::uint64_t> sparse_rounds{0};
  std::atomic<std::uint64_t> dense_rounds{0};
  /// Time until local signal production finished (compute, overlapped).
  double compute_s = 0.0;
  /// Remaining round time waiting on/processing remote streams.
  double comm_s = 0.0;
  std::atomic<std::uint64_t> messages{0};
  std::atomic<std::uint64_t> bytes{0};
  /// Dense frames that went out as one-sided direct puts (DESIGN.md §15).
  std::atomic<std::uint64_t> direct_sends{0};
  /// Next-round chunks and signals the stash dropped: stale, beyond the
  /// stash window, or over its bound (comm::PhaseStash).
  std::atomic<std::uint64_t> stash_drops{0};
  /// Received chunks released unapplied: shorter than a chunk header,
  /// failing the header self-check, or shorter than their payload_bytes.
  std::atomic<std::uint64_t> decode_rejects{0};
  /// Gauges set once at construction: this host's lid-metadata footprint in
  /// the compressed representation vs. the seed vector/hash-map model, and
  /// the mirror count it amortizes over (DESIGN.md §17).
  std::atomic<std::uint64_t> graph_mem_bytes{0};
  std::atomic<std::uint64_t> graph_mem_bytes_uncompressed{0};
  std::atomic<std::uint64_t> graph_mirrors{0};
};

/// Directory pattern key for gemini direct-write regions: gemini rounds all
/// share one exchange pattern (signal records keyed by destination gid), so
/// a single well-known key per (target, source) pair suffices. Distinct from
/// abelian's per-phase-spec keys, which share the same cluster directory.
inline constexpr std::uint32_t kGeminiPatternKey = 0x47454D31u;  // "GEM1"

class GeminiHost {
 public:
  /// `g` must be a BlockedEdgeCut partition.
  GeminiHost(abelian::Cluster& cluster, const graph::DistGraph& g,
             GeminiConfig cfg);
  ~GeminiHost();

  GeminiHost(const GeminiHost&) = delete;
  GeminiHost& operator=(const GeminiHost&) = delete;

  GeminiStats& stats() noexcept { return stats_; }
  comm::Backend& backend() noexcept { return *backend_; }
  const graph::DistGraph& graph() const noexcept { return g_; }

  /// Data-driven push apps (bfs / cc / sssp) using the Abelian app traits.
  template <typename Traits>
  std::vector<typename Traits::Label> run_push(graph::VertexId source,
                                               rt::RecoveryCtx* rec = nullptr);

  /// Topology-driven pagerank over master vertices.
  std::vector<double> run_pagerank(apps::PagerankOptions opt = {},
                                   rt::RecoveryCtx* rec = nullptr);

 private:
  template <typename T>
  void stream_round(
      const std::function<void(std::size_t tid,
                               const std::function<void(graph::VertexId,
                                                        const T&)>& emit)>&
          produce,
      const std::function<void(graph::VertexId, const T&)>& apply);

  template <typename T>
  bool drain_one_typed(
      const std::function<void(graph::VertexId, const T&)>& apply);

  /// Decodes one received chunk's signal records, applies them, and settles
  /// the chunk (release + note_chunk). Takes ownership of `m`.
  template <typename T>
  void apply_chunk_typed(
      comm::InMessage* m,
      const std::function<void(graph::VertexId, const T&)>& apply);

  /// One dense round's emission: `values[lid]` for every lid in `touched`
  /// goes to the lid's owner, once. Each peer gets its frame as one direct
  /// put when its region resolves (direct_put_dense); every other peer's
  /// records stream through stream_round.
  template <typename T>
  void send_dense(const rt::ConcurrentBitset& touched,
                  const std::vector<T>& values,
                  const std::function<void(graph::VertexId, const T&)>& apply);

  /// Dense-round direct-write fan-out (DESIGN.md §15): serializes one frame
  /// per remote peer from the touched/value scratch and puts it straight
  /// into the peer's registered region. Peers whose frame was put are marked
  /// in direct_skip_ so the streaming producers don't re-send their records;
  /// direct_sent_ feeds the tail's put count. Any failure (no region
  /// published, frame oversized, put unavailable) silently leaves the peer
  /// on the two-sided path. Called from send_dense before stream_round,
  /// single-threaded, under a gemini/direct_put span: the binning pass
  /// counts as compute_s and the puts (with their retries on a busy fabric)
  /// as comm_s, so the produce/drain split still adds up.
  template <typename T>
  void direct_put_dense(const rt::ConcurrentBitset& touched,
                        const std::vector<T>& values);

  /// Whether a cluster-wide failure is pending: round waits and back-pressure
  /// retries check this and unwind (never throw - the host-main driver
  /// raises the error at its next round boundary).
  bool aborting() const noexcept {
    return cluster_.membership().failure_pending();
  }

  abelian::Cluster& cluster_;
  const graph::DistGraph& g_;
  GeminiConfig cfg_;
  std::unique_ptr<comm::Backend> backend_;
  std::unique_ptr<rt::ThreadTeam> team_;

  rt::AuxThread server_thread_;
  std::atomic<bool> stop_{false};

  comm::StreamLedger ledger_;  // receive-side completion of the round
  std::uint32_t round_counter_ = 0;
  GeminiStats stats_;  // before stash_, which reports into it
  /// Chunks and direct signals from a peer already in the next round.
  comm::PhaseStash stash_{comm::kDefaultStashCap,
                          comm::StashCounters{nullptr, &stats_.stash_drops,
                                              &stats_.stash_drops}};

  /// Parallel-drain handoff: the thread that pops a chunk off the backend
  /// publishes it here so any compute thread can decode/apply it, instead of
  /// serializing decode behind the receiver (DESIGN.md §12). Entries are
  /// heap-owned; the applier deletes after settling.
  rt::MpmcQueue<comm::InMessage*> apply_queue_{1024};

  // Per-destination chunk counters for the current round.
  std::vector<std::unique_ptr<std::atomic<std::uint32_t>>> chunks_sent_;

  /// Receive-side direct-write regions, one per source peer, published in
  /// the cluster directory under kGeminiPatternKey.
  comm::LandingRegions landing_;
  std::vector<std::uint32_t> direct_sent_;  // per dst: puts issued this round
  std::vector<char> direct_skip_;           // per dst: records already put
  bool direct_enabled_ = false;

  telemetry::Registration stat_reg_;  // GeminiStats probes ("gemini.*")
};

// ---------------------------------------------------------------------------
// Template implementations
// ---------------------------------------------------------------------------

template <typename T>
void GeminiHost::apply_chunk_typed(
    comm::InMessage* m,
    const std::function<void(graph::VertexId, const T&)>& apply) {
  const comm::ChunkHeader header = m->header();
  const std::byte* p = m->payload();
  constexpr std::size_t rec = sizeof(graph::VertexId) + sizeof(T);
  if (telemetry::enabled() && header.trace_id != 0) {
    char hbuf[64];
    std::snprintf(hbuf, sizeof(hbuf), "{\"src\":%d,\"bytes\":%u}", m->src,
                  header.payload_bytes);
    telemetry::hop("decode", static_cast<std::uint32_t>(g_.host_id),
                   header.trace_id, header.trace_hop, hbuf);
  }
  for (std::size_t off = 0; off + rec <= header.payload_bytes; off += rec) {
    graph::VertexId gid;
    T value;
    std::memcpy(&gid, p + off, sizeof(gid));
    std::memcpy(&value, p + off + sizeof(gid), sizeof(T));
    // Gemini applies stay atomic (atomic_min/atomic_add in the app's slot
    // function): signal records arrive keyed by arbitrary unsorted gids, so
    // destination sharding would thrash a lock per record instead of
    // amortizing it like Abelian's sorted shared lists do.
    apply(gid, value);
  }
  if (telemetry::enabled() && header.trace_id != 0)
    telemetry::hop("apply", static_cast<std::uint32_t>(g_.host_id),
                   header.trace_id, header.trace_hop);
  if (m->release) m->release();
  ledger_.note_chunk(m->src, header);
  delete m;
}

template <typename T>
void GeminiHost::send_dense(
    const rt::ConcurrentBitset& touched, const std::vector<T>& values,
    const std::function<void(graph::VertexId, const T&)>& apply) {
  direct_put_dense<T>(touched, values);
  const std::size_t n_local = g_.num_local;
  std::atomic<std::size_t> cursor{0};
  stream_round<T>(
      [&](std::size_t,
          const std::function<void(graph::VertexId, const T&)>& emit) {
        constexpr std::size_t kGrain = 512;
        for (;;) {
          const std::size_t lo =
              cursor.fetch_add(kGrain, std::memory_order_relaxed);
          if (lo >= n_local) break;
          const std::size_t hi = std::min(n_local, lo + kGrain);
          touched.for_each_in_range(lo, hi, [&](std::size_t lid) {
            const graph::VertexId gid =
                g_.local_to_global(static_cast<graph::VertexId>(lid));
            const auto owner = static_cast<std::size_t>(g_.owner_of(gid));
            if (direct_skip_[owner] != 0) return;  // already put
            emit(gid, values[lid]);
          });
        }
      },
      apply);
}

template <typename T>
void GeminiHost::direct_put_dense(const rt::ConcurrentBitset& touched,
                                  const std::vector<T>& values) {
  if (!direct_enabled_) return;
  const int p = g_.num_hosts;
  const int me = g_.host_id;
  constexpr std::size_t rec = sizeof(graph::VertexId) + sizeof(T);
  rt::Timer timer;
  telemetry::Span span("gemini", "direct_put", static_cast<std::uint32_t>(me));
  // One pass over the touched scratch, binning records by owner. The frame
  // is a regular chunk (Raw records after a ChunkHeader) so the receive side
  // decodes it exactly like a streamed chunk, just in place.
  std::vector<std::vector<std::byte>> frames(static_cast<std::size_t>(p));
  touched.for_each([&](std::size_t lid) {
    const graph::VertexId gid =
        g_.local_to_global(static_cast<graph::VertexId>(lid));
    const int owner = g_.owner_of(gid);
    if (owner == me) return;
    auto& f = frames[static_cast<std::size_t>(owner)];
    if (f.empty()) f.resize(comm::kChunkHeaderBytes);
    const std::size_t off = f.size();
    f.resize(off + rec);
    std::memcpy(f.data() + off, &gid, sizeof(gid));
    std::memcpy(f.data() + off + sizeof(gid), &values[lid], sizeof(T));
  });
  stats_.compute_s += timer.elapsed_s();
  timer.reset();
  for (int dst = 0; dst < p; ++dst) {
    auto& f = frames[static_cast<std::size_t>(dst)];
    if (dst == me || f.empty()) continue;
    comm::DirectRegion region;
    if (!cluster_.direct_directory().lookup(dst, me, kGeminiPatternKey,
                                            region) ||
        f.size() > region.capacity)
      continue;  // no region published (yet) or oversized: stream instead
    comm::ChunkHeader header;
    header.phase_id = round_counter_;
    header.payload_bytes =
        static_cast<std::uint32_t>(f.size() - comm::kChunkHeaderBytes);
    header.base_pos = 0;
    header.span = 0;
    header.chunk_idx = 0;
    header.num_chunks = 0;  // data chunk: the tail carries the totals
    header.format = static_cast<std::uint8_t>(comm::WireFormat::Raw);
    header.finalize();
    std::memcpy(f.data(), &header, sizeof(header));
    bool ok = false;
    rt::Backoff backoff;
    for (;;) {
      const comm::DirectPutStatus st = backend_->direct_put(
          dst, region, f.data(), f.size(), round_counter_, kGeminiPatternKey);
      if (st == comm::DirectPutStatus::Ok) {
        ok = true;
        break;
      }
      if (st == comm::DirectPutStatus::Unavailable || aborting()) break;
      backend_->progress();  // Retry: transient resource exhaustion
      backoff.pause();
    }
    if (!ok) continue;
    direct_sent_[static_cast<std::size_t>(dst)] = 1;
    direct_skip_[static_cast<std::size_t>(dst)] = 1;
    stats_.direct_sends.fetch_add(1, std::memory_order_relaxed);
    stats_.messages.fetch_add(1, std::memory_order_relaxed);
    stats_.bytes.fetch_add(f.size(), std::memory_order_relaxed);
  }
  stats_.comm_s += timer.elapsed_s();
}

template <typename T>
bool GeminiHost::drain_one_typed(
    const std::function<void(graph::VertexId, const T&)>& apply) {
  // Prefer published work: another thread already paid the recv cost.
  if (auto queued = apply_queue_.try_pop()) {
    apply_chunk_typed<T>(*queued, apply);
    return true;
  }

  // Direct-put signals (DESIGN.md §15): the payload already sits in our
  // registered region; decode/apply in place, zero-copy. A signal for the
  // next round waits in the stash; the landing ladder drops anything not
  // addressed to the live registration - a stale put is not in any live
  // ledger, so dropping it cannot deadlock round completion.
  const std::uint32_t current = ledger_.id();
  comm::DirectSignal sig;
  while (stash_.pop(current, sig) || backend_->poll_direct(sig)) {
    if (sig.phase_id != current) {
      stash_.park(sig, current);
      continue;
    }
    comm::InMessage m;
    comm::ChunkHeader header;
    const auto verdict = landing_.land(sig, kGeminiPatternKey, m, header);
    if (verdict == comm::LandingRegions::Verdict::Stale) continue;
    if (verdict == comm::LandingRegions::Verdict::Accept) {
      constexpr std::size_t rec = sizeof(graph::VertexId) + sizeof(T);
      const std::byte* p = m.payload();
      for (std::size_t off = 0; off + rec <= header.payload_bytes;
           off += rec) {
        graph::VertexId gid;
        T value;
        std::memcpy(&gid, p + off, sizeof(gid));
        std::memcpy(&value, p + off + sizeof(gid), sizeof(T));
        apply(gid, value);
      }
    }
    // A live put counts even if its frame failed to parse (the ledger must
    // balance or the round hangs).
    ledger_.note_direct(sig.src);
    return true;
  }

  comm::InMessage msg;
  bool have = stash_.pop(current, msg) || backend_->try_recv(msg);
  if (!have) {
    // Nothing pending: lend this thread to progress for one step and look
    // again. On the paper's clusters the LCI server owns a core and this
    // never helps; on simulated hosts sharing cores the polling thread would
    // otherwise just spin waiting for the server thread to be scheduled.
    // Both backends Gemini drives have a thread-safe progress().
    backend_->progress();
    have = backend_->try_recv(msg);
  }
  if (!have) return false;

  // Garbage frame (truncated, failing its self-check, or claiming more
  // payload than it carries): release it without noting it toward the
  // ledger - a real peer chunk never fails these checks.
  if (msg.size < comm::kChunkHeaderBytes || !msg.header().valid() ||
      msg.payload_size() < msg.header().payload_bytes) {
    stats_.decode_rejects.fetch_add(1, std::memory_order_relaxed);
    if (msg.release) msg.release();
    return true;
  }
  const std::uint32_t phase = msg.header().phase_id;
  if (phase != current) {
    // A peer raced ahead into the next round (it can be at most one ahead).
    stash_.park(std::move(msg), phase, current);
    return true;
  }
  // Hand the chunk to the shared apply queue so the decode/apply work spreads
  // across every draining thread; apply inline only when the queue is full
  // (applying is the very thing that makes room).
  auto* m = new comm::InMessage(std::move(msg));
  if (!apply_queue_.try_push(m)) apply_chunk_typed<T>(m, apply);
  return true;
}

template <typename T>
void GeminiHost::stream_round(
    const std::function<void(
        std::size_t tid,
        const std::function<void(graph::VertexId, const T&)>& emit)>& produce,
    const std::function<void(graph::VertexId, const T&)>& apply) {
  const int p = g_.num_hosts;
  const int me = g_.host_id;
  ledger_.arm(round_counter_, p, static_cast<std::size_t>(p - 1));
  stash_.purge(round_counter_);
  for (auto& c : chunks_sent_) c->store(0, std::memory_order_relaxed);

  constexpr std::size_t rec = sizeof(graph::VertexId) + sizeof(T);
  // Cap batches at the backend's chunk size so leased LCI chunks fit one
  // eager packet and stay zero-copy end to end (0 = no preference).
  const std::size_t pref = backend_->chunk_bytes();
  std::size_t batch = std::max<std::size_t>(rec, cfg_.batch_bytes);
  if (pref > comm::kChunkHeaderBytes + rec)
    batch = std::min(batch, pref - comm::kChunkHeaderBytes);

  std::atomic<std::size_t> producers_left{team_->size()};
  std::atomic<std::uint64_t> produce_end_ns{0};
  const std::uint64_t bytes_before =
      stats_.bytes.load(std::memory_order_relaxed);
  const std::uint64_t round_start_ns = rt::now_ns();

  team_->run([&](std::size_t tid) {
    // Per-destination open lease: records are serialized directly into the
    // leased send buffer (header space reserved at the front), so shipping
    // writes the header in place and commits - no intermediate copy.
    struct Open {
      comm::BufferLease lease;
      std::size_t bytes = 0;  // payload bytes written past the header
    };
    std::vector<Open> open(static_cast<std::size_t>(p));
    auto drain = [&]() -> bool { return drain_one_typed<T>(apply); };
    // Writes `header` at the front of `lease` and commits the chunk. Data
    // chunks and tails share this path; while the backend pushes back, the
    // thread relieves it by consuming incoming records, and backs off only
    // when there was nothing to drain.
    auto post = [&](int dst, comm::BufferLease& lease,
                    comm::ChunkHeader& header) {
      header.finalize();
      std::memcpy(lease.data, &header, sizeof(header));
      const std::size_t total = comm::kChunkHeaderBytes + header.payload_bytes;
      if (telemetry::enabled() && header.trace_id != 0) {
        char hbuf[64];
        std::snprintf(hbuf, sizeof(hbuf), "{\"dst\":%d,\"bytes\":%zu}", dst,
                      total);
        telemetry::hop("encode", static_cast<std::uint32_t>(me),
                       header.trace_id, 0, hbuf);
        telemetry::hop("commit", static_cast<std::uint32_t>(me),
                       header.trace_id, 0);
      }
      stats_.messages.fetch_add(1, std::memory_order_relaxed);
      stats_.bytes.fetch_add(total, std::memory_order_relaxed);
      if (cfg_.tracker != nullptr) cfg_.tracker->on_alloc(total);
      rt::Backoff backoff;
      while (!backend_->commit(dst, lease, total)) {
        if (aborting()) {
          // Abandon the send; the round is unwinding for recovery.
          backend_->abandon(lease);
          if (cfg_.tracker != nullptr) cfg_.tracker->on_free(total);
          return;
        }
        if (drain())
          backoff.reset();
        else
          backoff.pause();
      }
    };
    auto ship = [&](int dst) {
      Open& o = open[static_cast<std::size_t>(dst)];
      if (o.bytes == 0) {
        if (o.lease) backend_->abandon(o.lease);
        return;
      }
      const std::uint32_t ord = chunks_sent_[static_cast<std::size_t>(dst)]
                                    ->fetch_add(1, std::memory_order_acq_rel);
      comm::ChunkHeader header;
      header.phase_id = ledger_.id();
      header.payload_bytes = static_cast<std::uint32_t>(o.bytes);
      header.chunk_idx = 0;   // scatter is order-free
      header.num_chunks = 0;  // streaming: total only known at the tail
      header.format = static_cast<std::uint8_t>(comm::WireFormat::Raw);
      // Causal-trace sampling: gemini chunks have no shared-list position,
      // so the per-destination chunk ordinal identifies the message. Set
      // before post() finalizes (the self-check covers the trace fields).
      header.trace_id = telemetry::sample_trace_id(
          static_cast<std::uint32_t>(me), ledger_.id(),
          (static_cast<std::uint32_t>(dst) << 16) | (ord & 0xFFFF));
      o.bytes = 0;
      post(dst, o.lease, header);
    };
    auto emit = [&](graph::VertexId gid, const T& value) {
      const int owner = g_.owner_of(gid);
      if (owner == me) {
        apply(gid, value);
        return;
      }
      Open& o = open[static_cast<std::size_t>(owner)];
      for (;;) {
        if (!o.lease) {
          o.lease = backend_->acquire(owner, comm::kChunkHeaderBytes + batch);
          o.bytes = 0;
        }
        const std::size_t cap =
            std::min(o.lease.capacity, comm::kChunkHeaderBytes + batch);
        if (comm::kChunkHeaderBytes + o.bytes + rec <= cap) break;
        ship(owner);  // full: ship and re-acquire
      }
      std::byte* at = o.lease.data + comm::kChunkHeaderBytes + o.bytes;
      std::memcpy(at, &gid, sizeof(gid));
      std::memcpy(at + sizeof(gid), &value, sizeof(T));
      o.bytes += rec;
    };

    produce(tid, emit);
    for (int dst = 0; dst < p; ++dst)
      if (dst != me) ship(dst);
    if (producers_left.fetch_sub(1, std::memory_order_acq_rel) == 1)
      produce_end_ns.store(rt::now_ns(), std::memory_order_release);

    // Thread 0 emits the tail chunks once every producer finished, telling
    // each peer how many chunks to expect from us this round.
    if (tid == 0) {
      rt::Backoff wait_backoff;
      while (producers_left.load(std::memory_order_acquire) != 0) {
        if (drain())
          wait_backoff.reset();
        else
          wait_backoff.pause();
      }
      for (int dst = 0; dst < p; ++dst) {
        if (dst == me) continue;
        const std::uint32_t sent =
            chunks_sent_[static_cast<std::size_t>(dst)]->load(
                std::memory_order_acquire);
        comm::ChunkHeader header;
        header.phase_id = ledger_.id();
        header.chunk_idx = 0;
        header.num_chunks = static_cast<std::uint16_t>(sent + 1);  // + tail
        header.payload_bytes = 0;
        // Direct-put ledger: the tail reuses base_pos to announce how many
        // direct puts this host issued to dst this round (DESIGN.md §15).
        header.base_pos = direct_sent_[static_cast<std::size_t>(dst)];
        header.format = static_cast<std::uint8_t>(comm::WireFormat::Raw);
        comm::BufferLease tail =
            backend_->acquire(dst, comm::kChunkHeaderBytes);
        post(dst, tail, header);
      }
    }

    rt::Backoff backoff;
    while (!ledger_.complete()) {
      // A dead peer's chunks never arrive: unwind instead of spinning.
      if (aborting()) break;
      if (drain_one_typed<T>(apply))
        backoff.reset();
      else
        backoff.pause();
    }
  });

  // Direct-round scratch is consumed (tails sent, producers done): reset so
  // a following sparse round doesn't inherit stale skip/count state.
  direct_sent_.assign(direct_sent_.size(), 0);
  direct_skip_.assign(direct_skip_.size(), 0);

  const std::uint64_t round_end_ns = rt::now_ns();
  const std::uint64_t mid = produce_end_ns.load(std::memory_order_acquire);
  stats_.compute_s += static_cast<double>(mid - round_start_ns) * 1e-9;
  stats_.comm_s += static_cast<double>(round_end_ns - mid) * 1e-9;
  if (telemetry::enabled()) {
    // Manufactured after the fact so the spans match the compute_s/comm_s
    // attribution exactly (the produce/drain boundary is the last producer's
    // finish time, unknowable to a RAII scope).
    const auto host = static_cast<std::uint32_t>(me);
    telemetry::emit_complete("gemini", "produce", host, round_start_ns,
                             mid - round_start_ns);
    telemetry::emit_complete("gemini", "drain", host, mid,
                             round_end_ns - mid);
  }
  // Health-monitor report: one (duration, bytes) sample per host per round,
  // piggybacked on the round completion just synchronized on.
  cluster_.health().note_phase(
      static_cast<std::uint32_t>(me), ledger_.id(),
      round_end_ns - round_start_ns,
      stats_.bytes.load(std::memory_order_relaxed) - bytes_before);

  ++round_counter_;
  stats_.rounds++;
}

template <typename Traits>
std::vector<typename Traits::Label> GeminiHost::run_push(
    graph::VertexId source, rt::RecoveryCtx* rec) {
  using Label = typename Traits::Label;
  const graph::VertexId mlo =
      g_.master_bounds[static_cast<std::size_t>(g_.host_id)];
  const std::size_t n_masters = g_.num_masters;
  const std::size_t n_local = g_.num_local;

  std::vector<Label> labels(n_masters);
  rt::ConcurrentBitset active(n_masters);
  rt::ConcurrentBitset frontier(n_masters);

  // Dense-mode scratch: per-destination combined candidates, plus one
  // private slot array per extra compute thread (dense_combine.hpp),
  // allocated on the first dense round so all-sparse runs never pay for it.
  std::vector<Label> combined(n_local, Traits::kInf);
  std::vector<std::vector<Label>> private_slots;
  rt::ConcurrentBitset touched(n_local);

  for (std::size_t i = 0; i < n_masters; ++i) {
    const graph::VertexId gid = mlo + static_cast<graph::VertexId>(i);
    labels[i] = Traits::init_label(gid, source);
    if (Traits::init_active(gid, source) && g_.out_edges.degree(i) > 0)
      active.set(i);
  }

  std::function<void(graph::VertexId, const Label&)> apply =
      [&](graph::VertexId gid, const Label& value) {
        const std::size_t i = gid - mlo;
        if (apps::atomic_min(labels[i], value)) {
          if (g_.out_edges.degree(i) > 0) active.set(i);
        }
      };

  apps::RoundLoop loop(cluster_, g_.host_id, "gemini", stats_.compute_s, rec);
  loop.persist(labels);
  loop.persist(active);
  loop.run(apps::RoundLoop::kNoCap, [&] {
    frontier.clear_all();
    std::size_t frontier_edges = 0;
    active.for_each([&](std::size_t i) {
      frontier.set(i);
      frontier_edges += g_.out_edges.degree(static_cast<graph::VertexId>(i));
    });
    active.clear_all();

    // Gemini's rule: go dense on active *edges*. A few hub vertices can carry
    // a large share of the local edges while being a tiny share of the
    // masters, and sparse mode pays one record per edge.
    const bool dense =
        static_cast<double>(frontier_edges) >
        cfg_.dense_threshold * static_cast<double>(g_.out_edges.num_edges());

    if (!dense) {
      // Sparse signal mode: one record per frontier out-edge.
      stats_.sparse_rounds++;
      std::atomic<std::size_t> cursor{0};
      stream_round<Label>(
          [&](std::size_t, const std::function<void(graph::VertexId,
                                                    const Label&)>& emit) {
            constexpr std::size_t kGrain = 256;
            for (;;) {
              const std::size_t lo =
                  cursor.fetch_add(kGrain, std::memory_order_relaxed);
              if (lo >= n_masters) break;
              const std::size_t hi = std::min(n_masters, lo + kGrain);
              frontier.for_each_in_range(lo, hi, [&](std::size_t i) {
                // Drains on other compute threads may lower the label
                // meanwhile; a newer value only tightens the candidates.
                const Label src_label = std::atomic_ref<Label>(labels[i]).load(
                    std::memory_order_relaxed);
                g_.out_edges.for_each_edge(
                    static_cast<graph::VertexId>(i),
                    [&](graph::VertexId dst_lid, graph::Weight w) {
                      const Label cand = Traits::relax(src_label, w);
                      if (cand == Traits::kInf) return;
                      emit(g_.local_to_global(dst_lid), cand);
                    });
              });
            }
          },
          apply);
    } else {
      // Dense mode: pre-combine all candidates per destination locally,
      // then signal each destination once (Gemini's aggregated slot path).
      stats_.dense_rounds++;
      if (private_slots.empty() && team_->size() > 1)
        private_slots = make_private_slots<Traits>(team_->size(), n_local);
      loop.compute([&] {
        dense_combine<Traits>(*team_, g_.out_edges, frontier, labels,
                              combined, private_slots, touched);
      });
      send_dense<Label>(touched, combined, apply);
      // Reset only the touched scratch entries; the next dense_combine
      // rewrites `touched` whole.
      touched.for_each([&](std::size_t dst) { combined[dst] = Traits::kInf; });
    }
    return static_cast<std::uint64_t>(active.count());
  });
  return labels;
}

}  // namespace lcr::gemini
