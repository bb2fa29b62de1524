// LCI communication backend (paper Section III-D).
//
// Thin shim over lci::Queue: commit() is SEND-ENQ with retry-on-exhaustion,
// try_recv() is RECV-DEQ with the first-packet policy, progress() runs the
// communication server step (Algorithm 3). Compute threads may call commit
// and try_recv directly (thread_safe_send/recv() == true); completion is
// observed through the request status flags, never a library call.
#pragma once

#include <deque>
#include <memory>

#include "comm/backend.hpp"
#include "lci/one_sided.hpp"
#include "lci/queue.hpp"
#include "runtime/spinlock.hpp"

namespace lcr::comm {

class LciBackend final : public Backend {
 public:
  LciBackend(fabric::Fabric& fabric, int rank, const BackendOptions& options);
  ~LciBackend() override;

  const char* name() const override { return "lci"; }
  bool thread_safe_send() const override { return true; }
  bool thread_safe_recv() const override { return true; }
  std::size_t chunk_bytes() const override { return queue_.eager_limit(); }

  void begin_phase(const PhaseSpec& spec) override;

  /// Zero-copy lease path: messages that fit an eager packet are serialized
  /// directly into pool memory and sent without any backend copy. Larger
  /// requests, and requests while the pool sits at its lease floor, get the
  /// base-class heap lease, which commit() sends through send_enq: one copy
  /// into an eager packet, or rendezvous straight from the heap buffer.
  BufferLease acquire(int dst, std::size_t max_bytes) override;
  bool commit(int dst, BufferLease& lease, std::size_t bytes) override;
  void abandon(BufferLease& lease) override;

  void flush() override;
  bool try_recv(InMessage& out) override;
  void progress() override;
  void end_phase() override;

  /// Direct-write path (DESIGN.md §15): regions are registered straight at
  /// the device (monotonic fabric rkeys, never reused), puts ride lc_put
  /// with a SIGNAL notification whose immediates carry the completion
  /// accounting, and landed signals queue here until the engine polls them.
  bool supports_direct_write() const override { return true; }
  DirectRegion register_direct_region(int src, std::byte* base,
                                      std::size_t bytes,
                                      std::uint32_t generation) override;
  void release_direct_region(int src, const DirectRegion& region) override;
  DirectPutStatus direct_put(int dst, const DirectRegion& region,
                             const void* payload, std::size_t bytes,
                             std::uint32_t phase_id,
                             std::uint32_t pattern_key) override;
  bool poll_direct(DirectSignal& out) override;

  lci::Queue& queue() noexcept { return queue_; }

  /// Receiver-side registration bookkeeping (bounds / generation / counter
  /// audits; the fuzz suite inspects it through here).
  lci::RegionBook& region_book() noexcept { return region_book_; }

 private:
  struct SendSlot {
    std::vector<std::byte> payload;  // heap lease, alive until req.done()
    std::size_t bytes = 0;           // wire bytes (tracker accounting)
    lci::Request req;
  };

  void reap_sends();

  lci::Queue queue_;
  rt::MemTracker* tracker_;

  // Incomplete requests list (paper: "Abelian's communication layer
  // maintains a list of incomplete requests, and can start freeing resources
  // ... by simply checking the boolean-type status of each request").
  rt::Spinlock send_lock_;
  std::deque<std::unique_ptr<SendSlot>> in_flight_sends_;

  rt::Spinlock rdv_lock_;
  std::deque<std::unique_ptr<lci::Request>> pending_rdv_;

  // Direct-write state: landed SIGNAL notifications (pushed from whichever
  // thread runs progress) and the local registration book.
  rt::Spinlock direct_lock_;
  std::deque<DirectSignal> direct_signals_;
  lci::RegionBook region_book_;
};

}  // namespace lcr::comm
