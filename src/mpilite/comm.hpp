// mpilite communicator: two-sided MPI semantics over the simulated fabric.
//
// Faithfully reproduces the MPI behaviours the paper measures against:
//
//  * Matching: posted receives (PRQ) and unexpected messages (UMQ) live in
//    sequential lists traversed linearly, "partly intrinsic to the design of
//    MPI which forces the traversal of sequential lists" (paper ref [17]).
//    Wildcard source/tag receives are supported, which is precisely what
//    prevents hashed matching.
//  * Ordering: per-(source, tag) FIFO matching order is guaranteed (the
//    fabric delivers per-link FIFO and the queues preserve arrival order).
//  * Eager/rendezvous: messages above the personality's eager limit use an
//    RTS/RTR/put/FIN handshake; eager messages that arrive unmatched are
//    copied into internal heap buffers (the unbounded internal buffering
//    whose exhaustion crashes real MPI; reproducible via
//    Personality::max_unexpected_bytes).
//  * No back pressure: isend never fails; when the fabric refuses an
//    injection the message is queued in an internal per-destination backlog
//    and flushed by the progress engine - exactly the "lack of back pressure
//    on producers" the paper describes in Section III-B.
//  * Progress: happens only inside mpilite calls (isend/irecv/iprobe/test),
//    i.e. "an expensive network poll" per MPI_TEST.
//  * THREAD_MULTIPLE: a single global lock serializes every call.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "fabric/fabric.hpp"
#include "fabric/reliable.hpp"
#include "mpilite/personality.hpp"
#include "mpilite/types.hpp"
#include "runtime/mem_tracker.hpp"
#include "runtime/spinlock.hpp"

namespace lcr::mpi {

class Window;

struct RequestImpl {
  enum class Kind : std::uint8_t { SendEager, SendRdv, Recv };
  Kind kind = Kind::SendEager;
  std::atomic<bool> complete{false};

  // Receive-side fields.
  void* buffer = nullptr;
  std::size_t capacity = 0;
  int src_filter = kAnySource;
  int tag_filter = kAnyTag;
  fabric::RKey rkey = fabric::kInvalidRKey;

  // Send-side fields (rendezvous keeps the user buffer pinned).
  const void* send_buffer = nullptr;
  std::size_t send_size = 0;

  Status status;  // filled at match/completion time
};

using Request = std::shared_ptr<RequestImpl>;

struct CommConfig {
  /// Internal pre-posted receive buffers (each MTU-sized).
  std::size_t rx_buffers = 128;
  /// Tracker for mpilite-internal buffering (unexpected copies + backlog).
  rt::MemTracker* internal_tracker = nullptr;
  /// How many threads will issue calls concurrently under THREAD_MULTIPLE.
  /// The per-call contention surcharge (Personality) is charged per *other*
  /// declared thread: the simulated hosts time-share one physical core, so
  /// thread contention that would arise on real many-core hosts is charged
  /// analytically and deterministically.
  std::size_t declared_concurrency = 1;
  /// Returns true when the cluster has a pending host failure. Blocking
  /// waits (Comm::wait, RMA epoch synchronization) poll it so a caller can
  /// unwind to recovery instead of wedging on a peer that died or already
  /// tore down its communicator. Null = never abort.
  std::function<bool()> abort_check{};
};

struct CommStats {
  std::atomic<std::uint64_t> isends{0};
  std::atomic<std::uint64_t> irecvs{0};
  std::atomic<std::uint64_t> iprobes{0};
  std::atomic<std::uint64_t> tests{0};
  std::atomic<std::uint64_t> umq_scanned{0};  // elements inspected
  std::atomic<std::uint64_t> prq_scanned{0};
  std::atomic<std::uint64_t> unexpected_msgs{0};
  std::atomic<std::uint64_t> backlogged_sends{0};
};

class Comm {
 public:
  Comm(fabric::Fabric& fabric, int rank, Personality personality,
       ThreadLevel thread_level, CommConfig cfg = {});
  ~Comm();

  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  int rank() const noexcept { return rank_; }
  int size() const noexcept { return size_; }
  const Personality& personality() const noexcept { return personality_; }
  ThreadLevel thread_level() const noexcept { return thread_level_; }
  CommStats& stats() noexcept { return stats_; }
  std::size_t eager_limit() const noexcept { return eager_limit_; }

  /// True when the cluster-level abort hook reports a pending host failure
  /// (see CommConfig::abort_check). Internal blocking waits bail out.
  bool aborting() const { return cfg_.abort_check && cfg_.abort_check(); }

  /// Nonblocking send. Never fails; may buffer internally (no back pressure).
  Request isend(const void* buf, std::size_t size, int dst, int tag);

  /// Nonblocking receive into `buf` (capacity bytes). Wildcards allowed.
  Request irecv(void* buf, std::size_t capacity, int src, int tag);

  /// Nonblocking probe: does a progress step, then searches the UMQ.
  bool iprobe(int src, int tag, Status* status_out);

  /// Progress + completion check.
  bool test(const Request& req);

  /// Spin until complete (calls progress).
  void wait(const Request& req);
  Status wait_status(const Request& req);

  /// Waits for every request in the span (MPI_Waitall).
  void wait_all(const std::vector<Request>& reqs);

  /// True iff every request completed (MPI_Testall); progresses once.
  bool test_all(const std::vector<Request>& reqs);

  /// Blocking convenience wrappers.
  void send(const void* buf, std::size_t size, int dst, int tag);
  Status recv(void* buf, std::size_t capacity, int src, int tag);

  /// Combined send+receive (MPI_Sendrecv): posts both, progresses to
  /// completion; safe against head-of-line deadlocks.
  Status sendrecv(const void* sbuf, std::size_t ssize, int dst, int stag,
                  void* rbuf, std::size_t rcapacity, int src, int rtag);

  /// Drive the progress engine once (drains backlog + CQ). Public so the
  /// dedicated communication thread can poll, mirroring MPI_Iprobe-driven
  /// progress in the paper's RMA layer.
  void progress();

  // --- RMA support (used by Window; see rma.hpp) ---
  void register_window(std::uint64_t id, Window* win);
  void deregister_window(std::uint64_t id);
  std::uint64_t next_window_id() { return window_id_counter_++; }
  fabric::Fabric& fabric() noexcept { return fabric_; }
  fabric::Endpoint& endpoint() noexcept { return endpoint_; }

  /// The reliability channel all wire traffic is routed through (passthrough
  /// on a reliable fabric). Window uses it directly for get replies.
  fabric::ReliableChannel& channel() noexcept { return channel_; }

  /// RMA control message (post/sync/get) with backlog fallback;
  /// thread-safe. `payload` may be nullptr when meta.size == 0.
  void rma_ctrl_send(int dst, fabric::MsgMeta meta,
                     const void* payload = nullptr);

  /// One attempt at an RMA put; returns false on soft failure (retry after
  /// progressing). Thread-safe.
  bool rma_try_put(int target, std::uint32_t rkey, std::size_t offset,
                   const void* src, std::size_t n, std::uint64_t win_id);

  /// One attempt at a direct-write put (DESIGN.md §15): a dynamic-segment
  /// RMA write outside any collective window epoch - the mpilite emulation
  /// of MPI_Win_create_dynamic + MPI_Rput. The raw PostResult is returned
  /// so callers can tell a transient soft failure (retry) from a dead
  /// registration (Invalid: fall back to two-sided). Thread-safe.
  fabric::PostResult direct_try_put(int target, std::uint64_t rkey,
                                    const void* src, std::size_t n,
                                    std::uint64_t imm, std::uint64_t imm2);

  /// Installs the handler invoked (under the comm lock, from whichever
  /// thread drives progress) when a DirectPut notification lands; the
  /// payload is already in the registered segment at that point. Install
  /// before any concurrent use; the slot itself is unsynchronized.
  void set_direct_handler(std::function<void(const fabric::MsgMeta&)> fn) {
    direct_handler_ = std::move(fn);
  }

 private:
  friend class Window;

  /// Send a wire packet, falling back to the internal backlog. Lock held.
  void post_or_backlog(int dst, const void* payload, fabric::MsgMeta meta);

  struct UmqEntry {
    int src;
    int tag;
    std::size_t size;
    bool is_rts;
    std::unique_ptr<std::byte[]> data;  // eager payload copy
    std::uint64_t send_handle = 0;      // RTS: sender's request
  };

  struct BacklogEntry {
    std::vector<std::byte> payload;
    fabric::MsgMeta meta;
  };

  // All of the below assume lock_ is held (Multiple) or single-threaded use
  // (Funneled).
  void progress_locked();
  void flush_backlog_locked();
  void handle_cqe_locked(const fabric::Cqe& cqe);
  void handle_eager_locked(const fabric::Cqe& cqe);
  void handle_rts_locked(const fabric::Cqe& cqe);
  void handle_rtr_locked(const fabric::Cqe& cqe);
  void issue_rtr_locked(int dst, std::uint64_t send_handle,
                        const Request& recv_req);
  bool match_filters(int src_filter, int tag_filter, int src, int tag) const {
    return (src_filter == kAnySource || src_filter == src) &&
           (tag_filter == kAnyTag || tag_filter == tag);
  }
  std::list<UmqEntry>::iterator find_in_umq_locked(int src, int tag);
  Request match_prq_locked(int src, int tag);
  void track_internal_alloc(std::size_t bytes);
  void track_internal_free(std::size_t bytes);

  class CallGuard;  // applies thread-level locking + per-call cost

  /// Channel tuning derived from the comm shape (hold window bounded well
  /// below the rx window so reordering cannot starve receive buffers).
  static fabric::ReliabilityConfig channel_config(const CommConfig& cfg);

  fabric::Fabric& fabric_;
  fabric::Endpoint& endpoint_;
  int rank_;
  int size_;
  Personality personality_;
  ThreadLevel thread_level_;
  CommConfig cfg_;
  std::size_t eager_limit_;
  fabric::ReliableChannel channel_;

  // Global lock under ThreadLevel::Multiple. A spinlock, not a std::mutex:
  // its critical sections take nested rt::Spinlocks (channel, endpoint,
  // direct handler) whose contended Backoff yields the holder's fiber, so a
  // waiter must yield its fiber too rather than block its ULT worker - the
  // holder may be queued on that very worker (DESIGN.md §16).
  rt::Spinlock lock_;

  // Internal receive buffers (slab + slot bookkeeping).
  std::unique_ptr<std::byte[]> rx_slab_;

  // Matching structures: sequential lists by design.
  std::list<UmqEntry> umq_;
  std::list<Request> prq_;

  // Per-destination send backlog (preserves per-link ordering).
  std::unordered_map<int, std::deque<BacklogEntry>> backlog_;
  std::size_t backlog_bytes_ = 0;

  // Requests pinned until completion (their raw pointers travel the wire).
  std::unordered_map<RequestImpl*, Request> pinned_;

  // Pending rendezvous puts that soft-failed (CQ full / throttled).
  struct PendingPut {
    int dst;
    fabric::RKey rkey;
    std::uint64_t send_handle;
    std::uint64_t recv_handle;
    std::size_t size;
  };
  std::deque<PendingPut> pending_puts_;

  // RMA windows by id.
  std::unordered_map<std::uint64_t, Window*> windows_;
  std::uint64_t window_id_counter_ = 1;

  std::size_t internal_bytes_ = 0;  // unexpected + backlog bytes

  CommStats stats_;
  telemetry::Registration stat_reg_;  // CommStats probes ("mpilite.*")
  std::function<void(const fabric::MsgMeta&)> direct_handler_;
};

}  // namespace lcr::mpi
