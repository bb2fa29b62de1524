// The Abelian host engine: the gather-communicate-scatter runtime of Fig. 2.
//
// Per host there is one dedicated communication thread and a team of compute
// threads. A BSP communication phase runs as:
//
//   1. compute threads gather per-peer dirty records into buffers in
//      parallel and enqueue them to the network,
//   2. once its gathers are done each compute thread switches to scattering
//      messages received from other hosts, in arbitrary arrival order,
//   3. the dedicated communication thread interleaves sending and receiving
//      the whole time; no blocking operations are used.
//
// Thread discipline per backend (see comm/backend.hpp). Compute threads
// always lease send buffers themselves (acquire() is thread-safe everywhere);
// what differs is who commits them and who receives:
//   * LCI (thread_safe): compute threads commit / try_recv directly; the
//     communication thread is exactly the LCI server (Algorithm 3).
//   * MPI-RMA: compute threads commit (put) directly; receives and epochs
//     stay on the communication thread.
//   * MPI-Probe (FUNNELED): the communication thread makes every MPI call;
//     compute threads hand it filled leases through a multi-producer send
//     queue and take messages from a concurrent receive queue.
// Phase transitions on the MPI layers travel through a command mailbox.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "abelian/cluster.hpp"
#include "abelian/sync.hpp"
#include "comm/backend.hpp"
#include "comm/direct.hpp"
#include "comm/phase_stash.hpp"
#include "comm/serializer.hpp"
#include "comm/stream_ledger.hpp"
#include "graph/dist_graph.hpp"
#include "runtime/aux_thread.hpp"
#include "runtime/bitset.hpp"
#include "runtime/mpmc_queue.hpp"
#include "runtime/thread_team.hpp"
#include "runtime/timer.hpp"
#include "telemetry/metrics.hpp"

namespace lcr::abelian {

struct EngineConfig {
  comm::BackendKind backend = comm::BackendKind::Lci;
  comm::BackendOptions backend_options;
  std::size_t compute_threads = 2;
  std::size_t recv_queue_capacity = 8192;
  /// Compute threads that run received-chunk applies during a sync phase
  /// (DESIGN.md §12). 0 = all of them; 1 reproduces the serial apply path.
  /// Clamped to [1, compute_threads].
  std::size_t apply_workers = 0;
  /// Record granularity for splitting one chunk into parallel apply slices
  /// (random-access wire formats only). A chunk is sliced once it holds at
  /// least twice this many records.
  std::uint32_t apply_slice_records = 4096;
  /// Bound on stashed out-of-order (future-phase) messages; beyond it new
  /// arrivals are dropped and counted (sync.stash_drops).
  std::size_t stash_cap = comm::kDefaultStashCap;
  /// One-sided direct-write policy (DESIGN.md §15). Resolved against the
  /// LCR_DIRECT_WRITE environment override at engine construction.
  comm::DirectWriteMode direct_write = comm::DirectWriteMode::Auto;
};

struct EngineStats {
  std::uint64_t phases = 0;
  std::uint64_t rounds = 0;
  std::atomic<std::uint64_t> messages_sent{0};
  std::atomic<std::uint64_t> bytes_sent{0};
  /// Wall nanoseconds spent serializing (gather/encode), summed over the
  /// compute threads - the Fig-6 "serialization" share.
  std::atomic<std::uint64_t> gather_ns{0};
  /// Wire bytes avoided by adaptive formats vs worst-case sparse records.
  std::atomic<std::uint64_t> bytes_saved{0};
  /// Format-choice counters (chunks shipped per encoding).
  std::atomic<std::uint64_t> fmt_sparse{0};
  std::atomic<std::uint64_t> fmt_varint{0};
  std::atomic<std::uint64_t> fmt_dense{0};
  /// Malformed chunks dropped by the unified scatter (fuzzed/garbage frames).
  /// A chunk rejected mid-decode by any of its apply slices counts once.
  std::atomic<std::uint64_t> decode_rejects{0};
  /// Wall nanoseconds spent decoding/applying received chunks, summed over
  /// the apply workers - the Fig-6 "apply" share.
  std::atomic<std::uint64_t> apply_ns{0};
  /// Gauge: apply workers active in the most recent phase.
  std::atomic<std::uint64_t> apply_threads{0};
  /// Contended shard-lock acquires on the parallel apply path.
  std::atomic<std::uint64_t> shard_contended{0};
  /// Gauge: most future-phase messages ever stashed at once.
  std::atomic<std::uint64_t> stash_peak{0};
  /// Future-phase messages dropped: stash at capacity, phase id beyond the
  /// stash window (comm::kStashPhaseWindow), or stale (behind the current
  /// phase).
  std::atomic<std::uint64_t> stash_drops{0};
  /// Direct-write puts shipped (one per (peer, round) on the direct path).
  std::atomic<std::uint64_t> direct_sends{0};
  std::atomic<std::uint64_t> direct_bytes{0};
  /// Wall nanoseconds of the direct path's in-place encode + put, summed
  /// over the compute threads. Deliberately separate from gather_ns: the
  /// direct path builds the payload once in the memory the put mirrors, so
  /// the Fig-6 serialization share genuinely excludes it.
  std::atomic<std::uint64_t> direct_ns{0};
  /// Direct signals dropped as stale: old generation (a put that raced a
  /// recovery epoch), wrong pattern, or a phase id outside the window.
  std::atomic<std::uint64_t> direct_stale{0};
  /// Direct attempts that reverted to the two-sided path (stale rkey after
  /// a revive, payload exceeding the region, no region published yet).
  std::atomic<std::uint64_t> direct_fallbacks{0};
  /// Non-overlapped communication time: wall time of sync phases (Fig 6).
  double comm_s = 0.0;
  /// Computation time, accumulated by the app drivers (Fig 6).
  double compute_s = 0.0;
  /// Gauges set once at construction from the host's DistGraph: compressed
  /// lid-metadata bytes, the seed-representation equivalent, and the mirror
  /// count (DESIGN.md §17). Summed by the registry across hosts.
  std::atomic<std::uint64_t> graph_mem_bytes{0};
  std::atomic<std::uint64_t> graph_mem_bytes_uncompressed{0};
  std::atomic<std::uint64_t> graph_mirrors{0};
};

class HostEngine {
 public:
  HostEngine(Cluster& cluster, const graph::DistGraph& graph,
             EngineConfig cfg);
  ~HostEngine();

  HostEngine(const HostEngine&) = delete;
  HostEngine& operator=(const HostEngine&) = delete;

  int host_id() const noexcept { return graph_.host_id; }
  const graph::DistGraph& graph() const noexcept { return graph_; }
  Cluster& cluster() noexcept { return cluster_; }
  rt::ThreadTeam& team() noexcept { return *team_; }
  comm::Backend& backend() noexcept { return *backend_; }
  EngineStats& stats() noexcept { return stats_; }

  /// Hands out payload memory for one chunk: reserve(bytes) returns where
  /// the encoder writes (a leased backend buffer, past the chunk header).
  using ReserveFn = std::function<std::byte*(std::size_t)>;
  /// Encodes the dirty entries of shared-list range [lo, hi) for `peer`
  /// directly into memory from `reserve`; returns what was encoded. Called
  /// concurrently from compute threads on disjoint ranges.
  using GatherFn = std::function<comm::EncodedChunk(
      int peer, std::uint32_t lo, std::uint32_t hi, const ReserveFn& reserve)>;
  /// Sentinel rec_hi: apply every record of the chunk (unsliced).
  static constexpr std::uint32_t kAllChunkRecords = 0xFFFFFFFFu;
  /// Applies record slice [rec_lo, rec_hi) of one received chunk from
  /// `peer`; false = malformed payload. rec_hi == kAllChunkRecords means
  /// "through the end" (always the case for formats that cannot be sliced).
  /// Must be thread-safe across messages and across disjoint slices of the
  /// same message - the apply workers decode and apply concurrently.
  using ScatterFn = std::function<bool(
      int peer, const comm::ChunkHeader& header, const std::byte* payload,
      std::uint32_t rec_lo, std::uint32_t rec_hi)>;

  /// Runs one full communication phase: the shared list of every peer with
  /// a non-empty `send_plan` entry is split into ranges gathered in
  /// parallel by the compute team straight into leased send buffers, then
  /// receive+scatter until one message stream from every peer with a
  /// non-empty `recv_plan` entry completed. `pattern` (0 = reduce,
  /// 1 = broadcast) and `rec_bytes` key the RMA window sets; max message
  /// sizes derive from the plan sizes (all-nodes-active upper bound).
  void execute_phase(std::uint32_t pattern, std::size_t rec_bytes,
                     const graph::CompressedPlan& send_plan,
                     const graph::CompressedPlan& recv_plan,
                     const GatherFn& gather, const ScatterFn& scatter);

  // ---- Partition-aware sync wrappers (used by app drivers) ----

  /// Reduce: ship dirty mirror labels to their masters and combine there.
  /// combine(T& current, T incoming) -> bool (true if current changed);
  /// on_update(master_lid) fires when a master's value changed. The engine
  /// holds the destination lid's shard lock around each combine (DESIGN.md
  /// §12), so combines run exclusively and plain stores (apps::plain_min /
  /// plain_add) suffice; atomic combiners remain correct, just slower.
  template <typename T, typename Combine, typename OnUpdate>
  void sync_reduce(T* labels, const rt::ConcurrentBitset& dirty,
                   Combine&& combine, OnUpdate&& on_update) {
    execute_phase(
        0, comm::record_bytes<T>(), graph_.mirror_to_master,
        graph_.master_to_mirror,
        [&](int peer, std::uint32_t lo, std::uint32_t hi,
            const ReserveFn& reserve) {
          return comm::encode_dirty_range<T>(
              graph_.mirror_to_master.span(peer), dirty, labels, lo, hi,
              reserve);
        },
        [&](int peer, const comm::ChunkHeader& header,
            const std::byte* payload, std::uint32_t rec_lo,
            std::uint32_t rec_hi) {
          const graph::PlanSpan shared = graph_.master_to_mirror.span(peer);
          comm::DecodeCursor cur;
          if (!comm::seek_record<T>(header, shared.size(), rec_lo, cur))
            return false;
          // Slice-private plan cursor: record positions stream strictly
          // increasing within a slice, so each plan chunk decodes once.
          graph::PlanCursor plan(shared);
          // The same master may receive from several peers concurrently
          // (and slices of different chunks interleave): exclusion comes
          // from the destination-lid shard lock, amortized by the shared
          // list's sort order.
          ShardLocks::Guard guard(shard_locks_, &stats_.shard_contended);
          const auto status = comm::decode_chunk_resume<T>(
              header, payload, shared.size(), cur,
              static_cast<std::size_t>(rec_hi - rec_lo),
              [&](std::uint32_t pos, const T& value) {
                const graph::VertexId lid = plan.at(pos);
                guard.enter(static_cast<std::size_t>(lid) >>
                            kApplyShardShift);
                if (combine(labels[lid], value)) on_update(lid);
              });
          return status != comm::DecodeStatus::Error;
        });
  }

  /// Broadcast: ship dirty master labels to every host holding a mirror.
  /// on_set(mirror_lid) fires after the mirror label was overwritten. No
  /// shard lock here: every local mirror has exactly one master host and
  /// chunk ranges partition the shared list, so each lid has one writer
  /// even under the parallel apply pipeline.
  template <typename T, typename OnSet>
  void sync_broadcast(T* labels, const rt::ConcurrentBitset& dirty,
                      OnSet&& on_set) {
    execute_phase(
        1, comm::record_bytes<T>(), graph_.master_to_mirror,
        graph_.mirror_to_master,
        [&](int peer, std::uint32_t lo, std::uint32_t hi,
            const ReserveFn& reserve) {
          return comm::encode_dirty_range<T>(
              graph_.master_to_mirror.span(peer), dirty, labels, lo, hi,
              reserve);
        },
        [&](int peer, const comm::ChunkHeader& header,
            const std::byte* payload, std::uint32_t rec_lo,
            std::uint32_t rec_hi) {
          const graph::PlanSpan shared = graph_.mirror_to_master.span(peer);
          comm::DecodeCursor cur;
          if (!comm::seek_record<T>(header, shared.size(), rec_lo, cur))
            return false;
          graph::PlanCursor plan(shared);
          const auto status = comm::decode_chunk_resume<T>(
              header, payload, shared.size(), cur,
              static_cast<std::size_t>(rec_hi - rec_lo),
              [&](std::uint32_t pos, const T& value) {
                const graph::VertexId lid = plan.at(pos);
                labels[lid] = value;  // single writer
                on_set(lid);
              });
          return status != comm::DecodeStatus::Error;
        });
  }

 private:
  /// A filled lease handed to the comm thread (FUNNELED backends), which
  /// commits its first `bytes`.
  struct SendWork {
    int dst = -1;
    comm::BufferLease lease;
    std::size_t bytes = 0;
    /// Direct-put work item: the comm thread issues direct_put(lease.data,
    /// bytes) instead of commit. Only queued when the put cannot hard-fail
    /// (capacity pre-checked against the region), so the direct count the
    /// compute thread put in the tail stays truthful.
    bool direct = false;
    comm::DirectRegion region{};
    std::uint32_t phase_id = 0;
    std::uint32_t pattern_key = 0;
  };

  enum class Cmd : std::uint8_t { None, BeginPhase, Flush, EndPhase };

  /// One received data chunk in flight through the apply pipeline. Owns the
  /// message; the last slice to finish settles the chunk (reject accounting,
  /// release, note_chunk) exactly once.
  struct ApplyJob {
    comm::InMessage msg;
    comm::ChunkHeader header;
    const ScatterFn* scatter = nullptr;
    std::atomic<std::uint32_t> slices_left{0};
    std::atomic<bool> rejected{false};
    /// Payload lives in a registered direct-write region (zero copy, no
    /// release); settling notes note_direct instead of note_chunk.
    bool is_direct = false;
  };

  /// Work-queue element: decode/apply records [rec_lo, rec_hi) of job's
  /// chunk (kAllChunkRecords = through the end).
  struct ApplySlice {
    ApplyJob* job = nullptr;
    std::uint32_t rec_lo = 0;
    std::uint32_t rec_hi = kAllChunkRecords;
  };

  void comm_thread_loop();
  void post_cmd(Cmd cmd, const comm::PhaseSpec* spec);
  /// Ships one framed chunk held in `lease` (header at offset 0): commits
  /// it directly for thread-safe backends, or hands the lease to the comm
  /// thread's send queue. Relieves back pressure by scattering while it
  /// waits.
  void dispatch_chunk(int dst, comm::BufferLease& lease,
                      std::size_t total_bytes, const ScatterFn& scatter,
                      bool can_apply);
  /// Hands `sw` to the comm thread, scattering while the send queue is
  /// full. False = the phase is aborting and `sw` was dropped.
  bool queue_send(SendWork* sw, const ScatterFn& scatter, bool can_apply);
  /// Sends the streaming tail for `dst`: a header-only chunk whose
  /// num_chunks carries the per-peer total (data chunks + itself) and whose
  /// base_pos carries the peer's direct-put count (tails have no records,
  /// so the field is free for the direct-write ledger).
  void send_tail(int dst, std::uint32_t data_chunks,
                 std::uint32_t direct_count, const ScatterFn& scatter,
                 bool can_apply);
  /// Ships one framed whole-list payload as a direct put: retries soft
  /// failures (scattering meanwhile), or queues to the comm thread on
  /// FUNNELED backends. False = the put cannot succeed and the caller must
  /// revert to the two-sided path for this (peer, round).
  bool try_direct_put(int dst, const comm::DirectRegion& region,
                      comm::BufferLease& lease, std::size_t bytes,
                      std::uint32_t phase_id, std::uint32_t pattern_key,
                      const ScatterFn& scatter, bool can_apply);
  /// Stashes a future-phase direct signal, or validates a current one
  /// through the landing-region ladder and turns a genuine one into a
  /// zero-copy apply job over its region.
  void handle_direct_signal(const comm::DirectSignal& sig,
                            const ScatterFn& scatter, bool can_apply);
  /// Makes receive-side progress: an apply worker (can_apply) prefers
  /// running one queued apply slice; otherwise pumps one message off the
  /// transport - validating, stashing, or splitting it into apply slices.
  /// Returns whether any work was done.
  bool drain_one(const ScatterFn& scatter, bool can_apply);
  bool next_message(comm::InMessage& out);
  /// Splits one current-phase data chunk into apply slices on the work
  /// queue (sliced only for random-access formats past the configured
  /// record threshold).
  void enqueue_apply(comm::InMessage&& msg, const comm::ChunkHeader& header,
                     const ScatterFn& scatter, bool can_apply,
                     bool is_direct = false);
  void push_slice(const ApplySlice& slice, bool can_apply);
  /// Decodes and applies one slice; the last slice of a job settles it.
  void run_slice(const ApplySlice& slice);
  /// Whether a cluster-wide failure is pending: every potentially-unbounded
  /// engine wait checks this so worker threads unwind instead of spinning on
  /// a dead peer (they never throw; the host-main driver raises the error).
  bool aborting() const noexcept;
  /// Settles a slice without running it (abort paths): decrements the job's
  /// slice count and, on the last slice, releases the message and deletes
  /// the job - no note_chunk, the phase is being abandoned.
  void abort_slice(const ApplySlice& slice);

  Cluster& cluster_;
  const graph::DistGraph& graph_;
  EngineConfig cfg_;
  std::unique_ptr<comm::Backend> backend_;
  std::unique_ptr<rt::ThreadTeam> team_;

  // Communication thread.
  rt::AuxThread comm_thread_;
  std::atomic<bool> stop_{false};
  std::atomic<Cmd> cmd_{Cmd::None};
  const comm::PhaseSpec* cmd_spec_ = nullptr;
  std::atomic<std::uint64_t> cmd_acks_{0};

  // Routing queues for non-thread-safe backends.
  rt::MpmcQueue<SendWork*> send_queue_;
  std::atomic<std::size_t> sends_pending_{0};
  rt::MpmcQueue<comm::InMessage*> recv_queue_;

  EngineStats stats_;  // before stash_, which reports into it

  // Chunks and direct signals that arrived for a future phase.
  comm::PhaseStash stash_;

  // --- Direct-write state (DESIGN.md §15) ---
  static std::uint64_t direct_key(std::uint32_t pattern_key,
                                  int peer) noexcept {
    return (static_cast<std::uint64_t>(pattern_key) << 32) |
           static_cast<std::uint32_t>(peer);
  }
  /// Receiver-side landing regions, one per (pattern_key, src), registered
  /// on first use and kept until teardown.
  comm::LandingRegions landing_;
  /// Sender-side density predictor per (pattern_key, dst): did the last
  /// stream to this peer produce a dense chunk? Auto mode goes direct when
  /// it did - density evolves slowly across rounds, and a mispredict only
  /// costs transport choice, never correctness (the direct frame carries
  /// whatever format the encoder picked). Entries are created by the
  /// host-main thread at phase entry; each slot is written by exactly one
  /// compute thread per phase (the one running the peer's last range).
  std::map<std::uint64_t, char> dense_prior_;
  std::uint32_t phase_pattern_key_ = 0;  // written between phases only

  // Parallel apply pipeline (DESIGN.md §12).
  rt::MpmcQueue<ApplySlice> apply_queue_;
  ShardLocks shard_locks_;
  std::size_t apply_workers_ = 1;     // effective count, clamped to the team
  std::size_t phase_value_bytes_ = 0; // sizeof(T) for the phase in flight

  /// Receive-side completion of the phase in flight.
  comm::StreamLedger ledger_;
  std::uint32_t phase_counter_ = 0;

  telemetry::Registration stat_reg_;  // EngineStats probes ("abelian.*")
};

}  // namespace lcr::abelian
