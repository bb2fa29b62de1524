// Communication-backend interface for the gather-communicate-scatter runtime.
//
// The Abelian engine (paper Fig. 2) drives one of three interchangeable
// backends: LCI (Section III-D), MPI-Probe (III-B) or MPI-RMA (III-C). The
// interface captures exactly the degrees of freedom the paper contrasts:
//
//  * thread_safe(): may compute threads send/receive directly? True for LCI
//    ("a thread can send a serialized message through SEND-ENQ and use
//    RECV-DEQ for probing incoming messages"); false for the MPI layers,
//    where a dedicated communication thread owns all MPI calls.
//  * chunk_bytes(): preferred message chunking. The MPI/LCI layers split a
//    peer's payload into eager-limit-sized chunks (the many-small-irregular-
//    messages regime); MPI-RMA sends one put per peer into a preallocated
//    worst-case window slot (chunk_bytes() == 0).
//  * begin_phase/flush/end_phase: BSP phase hooks; only RMA uses them
//    heavily (window creation, access/exposure epochs).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "comm/message.hpp"
#include "runtime/mem_tracker.hpp"

namespace lcr::fabric {
class Fabric;
}

namespace lcr::comm {

/// Description of one BSP communication phase, identical on all hosts.
struct PhaseSpec {
  std::uint32_t phase_id = 0;
  /// Stable key identifying the communication pattern x datatype; the RMA
  /// backend keeps one preallocated window set per key ("for each datatype
  /// ... for each pattern of communication").
  std::uint32_t pattern_key = 0;
  std::vector<int> send_to;
  std::vector<int> recv_from;
  /// Worst-case bytes (all nodes active) per peer, indexed by rank; used by
  /// RMA to size windows.
  std::vector<std::size_t> max_send_bytes;
  std::vector<std::size_t> max_recv_bytes;
};

/// Engine policy for the one-sided direct-write sync path (DESIGN.md §15).
enum class DirectWriteMode : std::uint8_t {
  Off,     ///< always two-sided (the pre-PR-8 pipeline)
  Auto,    ///< direct-write a (peer, round) when its payload is dense
  Forced,  ///< direct-write every non-empty (peer, round) with a region
};

const char* to_string(DirectWriteMode m);

/// Resolves the configured mode against the LCR_DIRECT_WRITE environment
/// override (off | auto | forced); the env var wins when set and valid.
DirectWriteMode resolve_direct_write(DirectWriteMode cfg);

/// A remotely writable per-source region descriptor, exchanged out of band
/// (the cluster's DirectDirectory stands in for the PMI rkey exchange).
/// `generation` is the epoch tag of DESIGN.md §15: bumped on every
/// (re)registration so a put aimed at a dead registration is detectable
/// even if the address range was reused.
struct DirectRegion {
  std::uint64_t token = 0;  ///< backend handle (fabric rkey / registry slot)
  std::size_t capacity = 0;
  std::uint32_t generation = 0;
  bool valid() const noexcept { return capacity != 0; }
};

/// Completion notification surfaced on the target after one direct put has
/// landed: counter-style accounting replaces per-message headers.
struct DirectSignal {
  int src = -1;
  std::uint32_t phase_id = 0;
  std::uint32_t pattern_key = 0;
  std::uint32_t generation = 0;
  std::uint32_t bytes = 0;
};

/// Outcome of a direct_put attempt. Retry = transient resource exhaustion
/// (make progress and call again); Unavailable = this put cannot succeed
/// (stale rkey after a revive, dead peer, unsupported backend) and the
/// caller must fall back to the two-sided path for this (peer, round).
enum class DirectPutStatus : std::uint8_t { Ok, Retry, Unavailable };

/// A writable send buffer handed out by a backend so gather can serialize
/// records (and the chunk header) directly into wire memory - an LCI packet
/// from the pre-registered pool, or plain heap for backends without native
/// buffers. Exactly one of commit()/abandon() must consume it.
struct BufferLease {
  std::byte* data = nullptr;
  std::size_t capacity = 0;
  bool pooled = false;   ///< true when `data` is backend-owned wire memory
  void* token = nullptr; ///< backend-private handle (e.g. the lci::Packet*)
  std::vector<std::byte> heap;  ///< backing store of a heap lease

  explicit operator bool() const noexcept { return data != nullptr; }

  /// A lease backed by `bytes` of plain heap memory (the default acquire(),
  /// and staging that never reaches commit(), e.g. direct-put frames).
  static BufferLease on_heap(std::size_t bytes) {
    BufferLease lease;
    lease.heap.resize(bytes);
    lease.data = lease.heap.data();
    lease.capacity = bytes;
    return lease;
  }
};

class Backend {
 public:
  virtual ~Backend() = default;

  virtual const char* name() const = 0;
  /// May compute threads call commit() directly? True for LCI (SEND-ENQ is
  /// thread-safe), for MPI-RMA ("the main compute thread ... will instead
  /// perform RMA operations", Section III-C) and for the THREAD_MULTIPLE
  /// MPI backend; false for MPI-Probe (FUNNELED: the dedicated
  /// communication thread owns every MPI call, so compute threads queue
  /// their filled leases to it). This is the only FUNNELED distinction on
  /// the send side: acquire()/abandon() are thread-safe everywhere.
  virtual bool thread_safe_send() const = 0;
  /// May compute threads call try_recv directly? True only for LCI
  /// (RECV-DEQ); the MPI layers receive on the communication thread.
  virtual bool thread_safe_recv() const = 0;
  virtual std::size_t chunk_bytes() const = 0;

  virtual void begin_phase(const PhaseSpec& spec) = 0;

  /// Leases a writable buffer of at least `max_bytes` for a message to
  /// `dst`. The default hands out heap memory (BufferLease::on_heap); LCI
  /// overrides it to lease a registered packet so the payload is serialized
  /// in place (zero-copy). Thread-safe on every backend - plain heap needs
  /// no lock and LCI's packet pool is locked - whatever thread_safe_send()
  /// says, so compute threads may lease for a FUNNELED backend too.
  virtual BufferLease acquire(int dst, std::size_t max_bytes);

  /// The one send entry (SEND-ENQ): hands the first `bytes` of a leased
  /// buffer (ChunkHeader already at offset 0) to the network layer. Takes a
  /// pooled lease or a heap lease alike. On success the lease is emptied,
  /// ownership transfers and the backend reports the eventual free of
  /// `bytes` to the tracker. Returns false - leaving the lease intact for
  /// retry - when resources are exhausted; the caller must make progress
  /// (receive/scatter) and call again. This is LCI's back-pressure surface;
  /// the MPI backends always accept and buffer internally instead (the
  /// "lack of back pressure" of Section III-B). If !thread_safe_send(),
  /// only the communication thread may call.
  virtual bool commit(int dst, BufferLease& lease, std::size_t bytes) = 0;

  /// Returns an unused lease to the backend (e.g. the range was clean);
  /// a no-op on an empty lease. Thread-safe, like acquire().
  virtual void abandon(BufferLease& lease);

  /// Called once per phase by the communication thread after every send for
  /// the phase has been issued.
  virtual void flush() = 0;

  /// Polls for an arrived message. If !thread_safe(), only the communication
  /// thread may call.
  virtual bool try_recv(InMessage& out) = 0;

  /// One progress step; called in a loop by the communication thread.
  virtual void progress() = 0;

  virtual void end_phase() = 0;

  // --- One-sided direct-write path (DESIGN.md §15) -----------------------
  // Dense rounds bypass the chunked two-sided pipeline: the target registers
  // a per-source region once, origins mirror whole reduction payloads into
  // it with a single put, and completion is counted via DirectSignals
  // instead of per-message headers. Backends that cannot provide the path
  // keep the defaults (unsupported) and the engine stays two-sided.

  /// Does this backend implement the direct-write path?
  virtual bool supports_direct_write() const { return false; }

  /// Registers `bytes` at `base` as a put target for peer `src` and tags it
  /// with `generation`. Thread-safe (no network calls). Returns an invalid
  /// region when the backend does not support direct writes.
  virtual DirectRegion register_direct_region(int src, std::byte* base,
                                              std::size_t bytes,
                                              std::uint32_t generation);

  /// Tears down a registration; in-flight puts at the old token resolve
  /// invalid at the fabric (tokens are never reused). Thread-safe.
  virtual void release_direct_region(int src, const DirectRegion& region);

  /// One-sided write of `bytes` from `payload` into peer `dst`'s region at
  /// offset 0, followed by a completion signal carrying (phase_id,
  /// pattern_key, region.generation, bytes). The payload is consumed at the
  /// call (the reliability layer snapshots it for retransmission), so the
  /// caller's buffer is reusable as soon as this returns Ok. Thread-safety
  /// matches thread_safe_send().
  virtual DirectPutStatus direct_put(int dst, const DirectRegion& region,
                                     const void* payload, std::size_t bytes,
                                     std::uint32_t phase_id,
                                     std::uint32_t pattern_key);

  /// Pops one landed-put notification. Thread-safe on every backend (the
  /// signal queue is backend-internal); signals become visible only after
  /// the put's payload is fully in the region.
  virtual bool poll_direct(DirectSignal& out);
};

/// Which backend to instantiate (bench/test parameter).
enum class BackendKind : std::uint8_t { Lci, MpiProbe, MpiRma };

const char* to_string(BackendKind k);

struct BackendOptions {
  rt::MemTracker* tracker = nullptr;
  /// MPI personality name: "default", "intelmpi", "mvapich", "openmpi".
  std::string mpi_personality = "default";
  /// MPI-Probe buffered-layer flush timeout (us) for sub-eager aggregates.
  std::uint64_t aggregation_timeout_us = 50;
  /// LCI receive-window packets; 0 = use the fabric's default_rx_buffers.
  std::size_t lci_rx_packets = 0;
  /// Cluster failure hook: returns true while a host kill awaits recovery.
  /// Backends with internally blocking synchronization (MPI-RMA epochs)
  /// poll it so host threads unwind to the recovery rendezvous instead of
  /// wedging on a peer that died or already tore down its communicator.
  std::function<bool()> abort_check;
};

/// Factory: builds the backend for `rank` on `fabric`.
std::unique_ptr<Backend> make_backend(BackendKind kind,
                                      fabric::Fabric& fabric, int rank,
                                      const BackendOptions& options);

}  // namespace lcr::comm
