// End-to-end reliability over an unreliable fabric.
//
// When FabricConfig::fault is enabled (or force_reliable is set) the fabric
// behaves like a UD/datagram-class transport: operations can be dropped,
// duplicated, delayed, reordered, or bit-flipped. ReliableChannel restores
// exactly-once, per-link-FIFO delivery on top of it:
//
//   * every data operation (eager send or RDMA put) carries a per-link
//     monotonic sequence number and a CRC-32 over its header + payload,
//   * the sender keeps a bounded retransmit ring of unacked operations and
//     re-sends on timeout with capped exponential backoff,
//   * the receiver acknowledges cumulatively (piggybacked on data packets
//     and on header-only control packets that bypass the rx window), holds
//     a small out-of-order window, refuses corrupt payloads, and drops
//     duplicates,
//   * lost RDMA puts are recovered probe-first: the sender asks "did seq N
//     arrive?" and only re-puts after an explicit NACK, so a late original
//     delivery can never be clobbered by a retransmission. Monotonic rkeys
//     (Endpoint::register_memory) make any residual stale re-put resolve
//     Invalid instead of landing in recycled memory.
//
// A progress-stall watchdog dumps per-link in-flight/retransmit/ack state to
// stderr after a configurable quiet period instead of hanging silently.
//
// On a reliable fabric the channel is a passthrough: one branch per call,
// no sequencing, no payload copies.
//
// Concurrency: any number of posting threads and progress threads per
// endpoint (LCI's compute threads post inline while its server polls). State
// is per-link spinlocked; a data op takes its sequence number and goes on the
// wire under its link's tx lock.
//
// Assumption (documented in DESIGN.md): concurrently in-flight puts on one
// link target disjoint registered regions. All three runtimes satisfy this -
// rendezvous landing buffers are per-request, RMA epochs separate rounds.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "fabric/fabric.hpp"
#include "runtime/spinlock.hpp"

namespace lcr::fabric {

struct ReliabilityConfig {
  /// Max unacked operations per destination link; send()/put() return
  /// RetransmitFull beyond this (back pressure). Clamped to reorder_window
  /// at construction: a sender that outruns the receiver's reorder window
  /// only manufactures guaranteed-dropped packets it must retransmit.
  std::size_t ring_capacity = 64;
  /// How far ahead of the cumulative ack a received seq may run before the
  /// receiver refuses it (go-back-N recovers the gap).
  std::uint32_t reorder_window = 64;
  /// Out-of-order completions buffered per source link (each pins one rx
  /// buffer until the gap fills). With max_held >= reorder_window - 1 every
  /// in-flight packet behind a gap is held, so one gap-head retransmission
  /// recovers the whole window; smaller values trade rx buffers for serial
  /// go-back-N recovery. Clamped to reorder_window - 1 at construction.
  std::size_t max_held = 63;
  /// Initial retransmit timeout; doubles per attempt up to rto_max_ns.
  /// Sized for the simulated fabric, where delivery is a same-process
  /// enqueue: tens of microseconds covers even a heavily backlogged pump.
  std::uint64_t rto_ns = 50 * 1000;
  std::uint64_t rto_max_ns = 20 * 1000 * 1000;
  /// Deliveries between forced cumulative acks (piggybacking happens
  /// opportunistically on every reverse data packet regardless).
  std::uint32_t ack_every = 8;
  /// Progress-stall watchdog: with unacked operations outstanding and no
  /// forward progress for this long, dump per-link protocol state to
  /// stderr. 0 disables.
  std::uint64_t watchdog_quiet_ns = 500ull * 1000 * 1000;
  /// Promote a stalled link from "slow peer" to "suspected dead peer" after
  /// this many retransmit attempts on its oldest unacked operation; the
  /// suspicion is reported to Fabric::report_suspected_dead (and from there
  /// to the membership layer). 0 disables the detector. Retransmission
  /// continues regardless - membership decides what a suspicion means.
  std::uint32_t suspect_after_attempts = 10;
  /// Deterministic protocol clock for single-threaded replay tests: time
  /// advances by one tick per pump() instead of reading the wall clock, and
  /// every *_ns field above is interpreted in ticks.
  bool tick_clock = false;
};

class ReliableChannel {
 public:
  /// `owner` names the channel in watchdog dumps (e.g. "lci", "mpilite").
  ReliableChannel(Fabric& fabric, Rank rank, ReliabilityConfig cfg = {},
                  const char* owner = "chan");

  ReliableChannel(const ReliableChannel&) = delete;
  ReliableChannel& operator=(const ReliableChannel&) = delete;

  /// False => the fabric is reliable and every call passes straight through.
  bool active() const noexcept { return active_; }

  /// Hook invoked when the channel consumes a Recv completion internally
  /// (duplicate, corrupt, or overflow packet): the owner must recycle the
  /// rx buffer back to the endpoint. Unset = the buffer is leaked from the
  /// receive window, so owners must always set it in active mode.
  void set_recycle(std::function<void(const Cqe&)> fn) {
    recycle_ = std::move(fn);
  }

  /// Reliable eager send. Active mode: the payload is copied into the
  /// retransmit ring and Ok is returned (completion semantics are unchanged
  /// for callers - buffered-at-target becomes buffered-in-ring). Returns
  /// RetransmitFull when the link's ring is full after one internal pump;
  /// hard failures (TooLarge / Invalid) are returned without enqueueing.
  PostResult send(Rank dst, const void* payload, MsgMeta meta);

  /// Reliable RDMA put. Always posts with a fabric-level notification so
  /// delivery can be sequenced and acked; if `notify` is false the
  /// notification is consumed channel-internally (RelFlag::kRelBare).
  PostResult put(Rank dst, RKey rkey, std::size_t offset, const void* payload,
                 std::size_t size, bool notify, MsgMeta meta);

  /// Drain one application-visible completion: pumps the protocol, then
  /// returns the next in-order data completion, if any.
  std::optional<Cqe> poll();

  /// Drive the protocol without consuming data completions: processes
  /// acks/probes, retransmits on timeout, flushes pending acks, checks the
  /// watchdog. Data completions are staged for a later poll(). Safe to call
  /// from a send path that is blocked on back pressure.
  void pump();

  /// True when any link has unacked operations in flight.
  bool has_inflight() const;

  /// Write per-link protocol state to stderr (the watchdog calls this; also
  /// useful from failure handlers in tests).
  void dump_state(const char* reason) const;

  const ReliabilityConfig& config() const noexcept { return cfg_; }

 private:
  struct TxEntry {
    std::uint32_t seq = 0;
    bool is_put = false;
    bool posted_ok = false;  // at least one fabric post was accepted
    MsgMeta meta;            // rel/seq/crc filled; ack stamped per attempt
    std::vector<std::byte> payload;
    RKey rkey = kInvalidRKey;  // puts
    std::size_t offset = 0;    // puts
    std::uint64_t last_tx = 0;       // last attempt (data or probe): RTO base
    std::uint64_t last_data_tx = 0;  // last data (re)post: nack-storm guard
    std::uint32_t attempts = 0;
  };

  struct TxLink {
    mutable rt::Spinlock lock;
    std::uint32_t next_seq = 0;
    std::uint32_t acked = 0;       // all seq < acked are delivered
    std::deque<TxEntry> ring;      // unacked, in seq order
    /// ring.size() mirrored atomically so service_tx can skip idle links
    /// without taking the lock.
    std::atomic<std::size_t> inflight{0};
    /// Retired payload buffers, reused to keep the steady-state send path
    /// free of heap allocation.
    std::vector<std::vector<std::byte>> spares;
    /// Watchdog escalation: the link's oldest unacked operation exceeded
    /// suspect_after_attempts retransmissions (reported once).
    bool suspected = false;
    /// The fabric returned Down for this destination (fail-stop kill). The
    /// ring was discarded and subsequent traffic is swallowed: recovery
    /// rebuilds the whole channel under a new epoch.
    bool down = false;
  };

  struct RxLink {
    mutable rt::Spinlock lock;
    // Next in-order seq. Atomic so stamp_ack can piggyback the cumulative
    // ack without the lock; all writes still happen under `lock`.
    std::atomic<std::uint32_t> expected{0};
    std::map<std::uint32_t, Cqe> held;  // out-of-order completions
    // Atomic so flush_acks can peek "nothing to do" without the lock; all
    // writes still happen under `lock`.
    std::atomic<std::uint32_t> delivered_since_ack{0};
    std::atomic<bool> ack_dirty{false};  // duplicate/probe seen: ack soon
    std::uint32_t nack_seq_plus1 = 0;  // pending retransmit request (0=none)
    std::uint64_t last_ack_tx = 0;
  };

  std::uint64_t proto_now();
  std::uint64_t rto_for(std::uint32_t attempts) const;
  void stamp_ack(Rank dst, MsgMeta& meta);
  PostResult post_entry(Rank dst, TxEntry& e);
  void handle_ack(Rank peer, std::uint32_t ack, std::uint32_t nack_plus1);
  void handle_probe(Rank peer, std::uint32_t seq);
  void handle_data(Cqe& cqe);
  void service_tx(std::uint64_t now);
  /// Fail-stop teardown of one destination link (tx.lock must be held):
  /// discards the retransmit ring and reports the peer suspected dead.
  void note_down(Rank dst, TxLink& tx);
  /// Watchdog escalation to "suspected dead" (tx.lock must be held).
  void note_suspect(Rank dst, TxLink& tx, std::uint32_t attempts);
  void flush_acks(std::uint64_t now);
  void send_ack(Rank peer, RxLink& rx);
  void recycle(const Cqe& cqe);
  void note_progress(std::uint64_t now) {
    last_progress_.store(now, std::memory_order_relaxed);
  }

  Fabric& fabric_;
  Endpoint& endpoint_;
  Rank rank_;
  ReliabilityConfig cfg_;
  const char* owner_;
  bool active_;

  // Telemetry (owned by the fabric's registry; null when inactive).
  telemetry::Histogram* held_hist_ = nullptr;     // rx hold-buffer occupancy
  telemetry::Histogram* rtx_gap_hist_ = nullptr;  // ns between (re)post and
                                                  // the retransmit it forced

  std::vector<TxLink> tx_links_;  // indexed by destination rank
  std::vector<RxLink> rx_links_;  // indexed by source rank

  mutable rt::Spinlock ready_lock_;
  std::deque<Cqe> ready_;  // in-order data completions awaiting poll()
  std::atomic<std::size_t> ready_count_{0};   // lock-free empty check
  std::atomic<std::size_t> inflight_{0};      // total unacked, all links

  std::function<void(const Cqe&)> recycle_;

  std::atomic<std::uint64_t> tick_{0};            // tick_clock time source
  std::atomic<std::uint64_t> last_progress_{0};
  std::atomic<std::uint64_t> last_dump_{0};
};

}  // namespace lcr::fabric
