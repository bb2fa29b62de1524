// The LCI Queue interface (paper Section III-D, Algorithms 1-3).
//
// Queue is the interface LCI exposes to Abelian-style irregular communication:
//   * send_enq  - Algorithm 1: allocate a packet; eager-copy-and-send for
//     small messages (request completes immediately), RTS handshake for large
//     ones (request completes when the server has lc_put the data). Returns
//     false - a *non-fatal* failure - when resources are exhausted; the
//     caller retries later. This is the back-pressure mechanism MPI lacks.
//   * recv_deq  - Algorithm 2: dequeue the next arrived packet (any source,
//     any tag - the *first-packet policy*; there is no tag matching and no
//     ordering enforcement). EGR packets complete immediately with a
//     zero-copy view into the packet; RTS packets allocate the target buffer,
//     answer with an RTR, and complete when the RDMA notification arrives.
//   * progress  - Algorithm 3: the communication server's step. Executes the
//     per-packet-type callbacks: queue EGR/RTS for recv_deq, serve RTR by
//     issuing the lc_put, retire requests on RDMA notifications.
//
// Injection is inline: send_enq and send_leased post to the fabric at the
// call site, so an eager request is done() when the call returns. Many
// compute threads may post concurrently; the reliability channel assigns its
// per-link sequence number under the link's tx lock at post time, so the
// wire traffic on each link stays in sequence (DESIGN.md §10).
//
// Thread-safety: send_enq, send_leased and recv_deq may be called
// concurrently from many threads (the packet pool and queue Q are
// concurrent); progress may be called concurrently from the server and from
// any thread that lends itself to progress - the retry deques are locked.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "lci/device.hpp"
#include "lci/request.hpp"
#include "runtime/mem_tracker.hpp"
#include "runtime/mpmc_queue.hpp"
#include "runtime/spinlock.hpp"

namespace lcr::lci {

struct QueueConfig {
  DeviceConfig device;
  /// Tracker for rendezvous receive-buffer allocations (Fig 5 accounting).
  rt::MemTracker* tracker = nullptr;
};

struct QueueStats {
  std::atomic<std::uint64_t> eager_sends{0};
  std::atomic<std::uint64_t> rdv_sends{0};
  std::atomic<std::uint64_t> send_retries{0};  // pool exhausted / fabric soft-fail
  std::atomic<std::uint64_t> recvs{0};
  std::atomic<std::uint64_t> progress_events{0};
  std::atomic<std::uint64_t> lease_sends{0};  // zero-copy leased-packet sends
};

class Queue {
 public:
  Queue(fabric::Fabric& fabric, fabric::Rank rank, QueueConfig cfg);

  Queue(const Queue&) = delete;
  Queue& operator=(const Queue&) = delete;

  fabric::Rank rank() const noexcept { return device_.rank(); }
  std::size_t eager_limit() const noexcept { return device_.eager_limit(); }
  Device& device() noexcept { return device_; }
  QueueStats& stats() noexcept { return stats_; }

  /// Algorithm 1. Returns false when resources are exhausted (retry later).
  /// Eager requests are done() at return. A rendezvous request completes
  /// when the server has put the data; until then `req` must stay alive and
  /// un-moved and `buf` unmodified.
  bool send_enq(const void* buf, std::size_t size, fabric::Rank dst,
                std::uint32_t tag, Request& req);

  /// Zero-copy send path: lease a tx packet so the caller serializes the
  /// wire payload directly into registered pool memory (no send-side
  /// memcpy). The lease respects a free-packet floor so long-held leases
  /// cannot starve RTS/RTR control traffic. nullptr = retry later.
  Packet* lease_tx_packet();

  /// Returns an unsent leased packet to the pool.
  void return_tx_packet(Packet* p) { device_.tx_free(p); }

  /// Sends the first `size` bytes of a leased packet's slab (size must be
  /// <= eager_limit()). Mirrors the eager half of send_enq minus the copy.
  /// On soft failure returns false and - unlike send_enq - the packet STAYS
  /// LEASED with its contents intact, so the caller retries the commit
  /// without re-serializing. On success the packet returns to the pool and
  /// `req` is done().
  bool send_leased(Packet* p, std::size_t size, fabric::Rank dst,
                   std::uint32_t tag, Request& req);

  /// Algorithm 2. Returns false when no packet is pending. On true, `req`
  /// describes the incoming message; data at req.buffer is valid (EGR) or
  /// will be valid once req.done() (rendezvous). Call release(req) after
  /// consuming the data.
  bool recv_deq(Request& req);

  /// Releases receive-side resources: recycles the pool packet back to the
  /// NIC receive window, or frees a rendezvous buffer.
  void release(Request& req);

  /// Algorithm 3, one step: retries soft-failed puts and RTR replies, then
  /// processes one fabric event. Returns true if any work was done. Safe to
  /// call concurrently from several threads.
  bool progress();

  /// Drain everything currently deliverable.
  void progress_all() {
    while (progress()) {
    }
  }

  /// Convenience blocking helpers for tests and examples. They internally
  /// call progress(), so they must not be mixed with a concurrent server
  /// thread unless `spin_only` semantics are acceptable.
  void send_blocking(const void* buf, std::size_t size, fabric::Rank dst,
                     std::uint32_t tag);
  void recv_blocking(Request& req);

  /// Installs the handler for one-sided SIGNAL notifications (direct-write
  /// puts, DESIGN.md §15): by the time it fires the put's payload has fully
  /// landed in the registered region, and the handler receives the
  /// notification metadata (immediates carry generation/phase/bytes). It
  /// runs on whichever thread drives progress, so it must be cheap and must
  /// not call back into this Queue. Install before any concurrent progress
  /// driver (server / compute threads) starts; the slot is not
  /// synchronized against in-flight dispatch.
  void set_signal_handler(std::function<void(const fabric::MsgMeta&)> fn) {
    signal_handler_ = std::move(fn);
  }

 private:
  struct PendingPut {
    fabric::Rank peer;
    RtrPayload rtr;
  };

  /// An RTR control reply whose lc_send soft-failed (reverse link
  /// throttled). recv_deq runs on engine threads, and an engine thread that
  /// spins on the reverse link stops draining its own receive side - at
  /// scale that wedges the whole cluster (A's link to B is full because B is
  /// stuck sending to A). So the reply is staged here by value and
  /// progress() retries it; the receive request stays Pending and
  /// completes on the RDMA notification as usual.
  struct PendingRtr {
    fabric::Rank peer;
    std::uint32_t tag;
    RtrPayload rtr;
  };

  void serve_rtr(const RtrPayload& rtr, fabric::Rank peer);
  bool retry_pending_puts();
  bool retry_pending_rtrs();
  bool dispatch_one_event();

  Device device_;
  rt::MpmcQueue<Packet*> incoming_;  // the global concurrent queue Q
  rt::MemTracker* tracker_;
  QueueStats stats_;
  telemetry::Histogram* recv_q_depth_ = nullptr;  // Q occupancy at enqueue
  telemetry::Registration stat_reg_;  // QueueStats probes ("lci.*")

  // Soft-failed lc_puts and RTR replies, retried by progress().
  rt::Spinlock put_lock_;
  std::deque<PendingPut> pending_puts_;
  rt::Spinlock rtr_lock_;
  std::deque<PendingRtr> pending_rtrs_;
  std::function<void(const fabric::MsgMeta&)> signal_handler_;
};

}  // namespace lcr::lci
