#include "mpilite/comm.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <mutex>

#include "mpilite/rma.hpp"
#include "runtime/cpu_relax.hpp"

namespace lcr::mpi {

namespace {

struct RtsWire {
  std::uint64_t size;
  std::uint64_t send_handle;
};

struct RtrWire {
  std::uint64_t send_handle;
  std::uint64_t recv_handle;
  std::uint32_t rkey;
  std::uint64_t size;
};

}  // namespace

/// Applies thread-level locking and the personality's per-call base cost.
class Comm::CallGuard {
 public:
  explicit CallGuard(Comm& comm) : comm_(comm) {
    if (comm_.thread_level_ == ThreadLevel::Multiple) {
      comm_.lock_.lock();
      const std::uint64_t others = std::min<std::uint64_t>(
          comm_.cfg_.declared_concurrency > 0
              ? comm_.cfg_.declared_concurrency - 1
              : 0,
          4);
      rt::spin_for_ns(comm_.personality_.lock_cost_ns +
                      others * comm_.personality_.multiple_surcharge_ns);
      locked_ = true;
    }
    rt::spin_for_ns(comm_.personality_.call_overhead_ns);
  }
  ~CallGuard() {
    if (locked_) comm_.lock_.unlock();
  }
  CallGuard(const CallGuard&) = delete;

 private:
  Comm& comm_;
  bool locked_ = false;
};

fabric::ReliabilityConfig Comm::channel_config(const CommConfig& cfg) {
  fabric::ReliabilityConfig rc;
  // Budget a quarter of the receive window for out-of-order holds: enough
  // that a lossy window usually recovers with one gap-head retransmission,
  // while reordering can never pin most of the rx buffers.
  rc.max_held = std::max<std::size_t>(4, cfg.rx_buffers / 4);
  return rc;
}

Comm::Comm(fabric::Fabric& fabric, int rank, Personality personality,
           ThreadLevel thread_level, CommConfig cfg)
    : fabric_(fabric),
      endpoint_(fabric.endpoint(static_cast<fabric::Rank>(rank))),
      rank_(rank),
      size_(static_cast<int>(fabric.num_ranks())),
      personality_(std::move(personality)),
      thread_level_(thread_level),
      cfg_(cfg),
      eager_limit_(std::min(personality_.eager_limit, fabric.config().mtu)),
      channel_(fabric, static_cast<fabric::Rank>(rank), channel_config(cfg),
               "mpilite") {
  const std::size_t mtu = fabric.config().mtu;
  rx_slab_.reset(new std::byte[cfg_.rx_buffers * mtu]);
  for (std::size_t i = 0; i < cfg_.rx_buffers; ++i)
    endpoint_.post_rx({rx_slab_.get() + i * mtu, mtu, i});
  // Buffers the channel consumes internally (duplicates, corrupt payloads)
  // go straight back to the receive window.
  channel_.set_recycle([this, mtu](const fabric::Cqe& cqe) {
    endpoint_.post_rx(
        {rx_slab_.get() + cqe.rx_context * mtu, mtu, cqe.rx_context});
  });
  stat_reg_ = fabric.telemetry().register_probes({
      {"mpilite.isends", &stats_.isends},
      {"mpilite.irecvs", &stats_.irecvs},
      {"mpilite.iprobes", &stats_.iprobes},
      {"mpilite.tests", &stats_.tests},
      {"mpilite.umq_scanned", &stats_.umq_scanned},
      {"mpilite.prq_scanned", &stats_.prq_scanned},
      {"mpilite.unexpected_msgs", &stats_.unexpected_msgs},
      {"mpilite.backlogged_sends", &stats_.backlogged_sends},
  });
}

Comm::~Comm() {
  // Reclaim the receive buffers from the fabric: the slab dies with us.
  endpoint_.detach();
}

void Comm::track_internal_alloc(std::size_t bytes) {
  internal_bytes_ += bytes;
  if (cfg_.internal_tracker != nullptr) cfg_.internal_tracker->on_alloc(bytes);
  if (personality_.max_unexpected_bytes != 0 &&
      internal_bytes_ > personality_.max_unexpected_bytes)
    throw FatalMpiError(
        "mpilite: internal buffering exhausted (unexpected messages / send "
        "backlog) - the MPI standard does not require surviving this");
}

void Comm::track_internal_free(std::size_t bytes) {
  internal_bytes_ -= bytes;
  if (cfg_.internal_tracker != nullptr) cfg_.internal_tracker->on_free(bytes);
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

Request Comm::isend(const void* buf, std::size_t size, int dst, int tag) {
  CallGuard guard(*this);
  stats_.isends.fetch_add(1, std::memory_order_relaxed);
  progress_locked();

  auto req = std::make_shared<RequestImpl>();
  if (size <= eager_limit_) {
    // Eager: the payload is copied (inline into the wire, or into the
    // backlog), so the request completes immediately.
    fabric::MsgMeta meta;
    meta.kind = static_cast<std::uint8_t>(WireKind::Eager);
    meta.tag = static_cast<std::uint32_t>(tag);
    meta.size = static_cast<std::uint32_t>(size);
    post_or_backlog(dst, buf, meta);
    req->kind = RequestImpl::Kind::SendEager;
    req->complete.store(true, std::memory_order_release);
    return req;
  }

  // Rendezvous: RTS handshake; user buffer pinned until the put completes.
  req->kind = RequestImpl::Kind::SendRdv;
  req->send_buffer = buf;
  req->send_size = size;
  pinned_.emplace(req.get(), req);
  RtsWire rts{static_cast<std::uint64_t>(size),
              reinterpret_cast<std::uint64_t>(req.get())};
  fabric::MsgMeta meta;
  meta.kind = static_cast<std::uint8_t>(WireKind::Rts);
  meta.tag = static_cast<std::uint32_t>(tag);
  meta.size = sizeof(rts);
  post_or_backlog(dst, &rts, meta);
  return req;
}

Request Comm::irecv(void* buf, std::size_t capacity, int src, int tag) {
  CallGuard guard(*this);
  stats_.irecvs.fetch_add(1, std::memory_order_relaxed);
  progress_locked();

  auto req = std::make_shared<RequestImpl>();
  req->kind = RequestImpl::Kind::Recv;
  req->buffer = buf;
  req->capacity = capacity;
  req->src_filter = src;
  req->tag_filter = tag;
  pinned_.emplace(req.get(), req);

  auto it = find_in_umq_locked(src, tag);
  if (it != umq_.end()) {
    if (!it->is_rts) {
      assert(it->size <= capacity && "recv buffer too small");
      std::memcpy(buf, it->data.get(), it->size);
      req->status = Status{it->src, it->tag, it->size};
      req->complete.store(true, std::memory_order_release);
      pinned_.erase(req.get());
      track_internal_free(it->size);
    } else {
      req->status = Status{it->src, it->tag, it->size};
      issue_rtr_locked(it->src, it->send_handle, req);
    }
    umq_.erase(it);
    return req;
  }

  prq_.push_back(req);
  return req;
}

bool Comm::iprobe(int src, int tag, Status* status_out) {
  CallGuard guard(*this);
  stats_.iprobes.fetch_add(1, std::memory_order_relaxed);
  progress_locked();
  rt::spin_for_ns(personality_.probe_cost_ns);

  auto it = find_in_umq_locked(src, tag);
  if (it == umq_.end()) return false;
  if (status_out != nullptr) *status_out = Status{it->src, it->tag, it->size};
  return true;
}

bool Comm::test(const Request& req) {
  CallGuard guard(*this);
  stats_.tests.fetch_add(1, std::memory_order_relaxed);
  progress_locked();  // "a MPI_TEST leads to an expensive network poll"
  return req->complete.load(std::memory_order_acquire);
}

void Comm::wait(const Request& req) {
  rt::Backoff backoff;
  while (!test(req)) {
    // A dead peer never completes our request; unwind so the host thread
    // can reach the recovery rendezvous instead of wedging here.
    if (aborting()) return;
    backoff.pause();
  }
}

Status Comm::wait_status(const Request& req) {
  wait(req);
  return req->status;
}

void Comm::wait_all(const std::vector<Request>& reqs) {
  for (const Request& r : reqs) wait(r);
}

bool Comm::test_all(const std::vector<Request>& reqs) {
  {
    CallGuard guard(*this);
    progress_locked();
  }
  for (const Request& r : reqs)
    if (!r->complete.load(std::memory_order_acquire)) return false;
  return true;
}

void Comm::send(const void* buf, std::size_t size, int dst, int tag) {
  wait(isend(buf, size, dst, tag));
}

Status Comm::sendrecv(const void* sbuf, std::size_t ssize, int dst, int stag,
                      void* rbuf, std::size_t rcapacity, int src, int rtag) {
  Request s = isend(sbuf, ssize, dst, stag);
  Request r = irecv(rbuf, rcapacity, src, rtag);
  wait(r);
  wait(s);
  return r->status;
}

Status Comm::recv(void* buf, std::size_t capacity, int src, int tag) {
  return wait_status(irecv(buf, capacity, src, tag));
}

void Comm::progress() {
  // The progress pump is not an application-facing call: a dedicated
  // polling thread repeatedly re-acquiring its own (usually uncontended)
  // lock is cheap in deployed MPIs too, so only the raw lock is taken here
  // - no per-call overhead or contention surcharge.
  if (thread_level_ == ThreadLevel::Multiple) {
    std::lock_guard<rt::Spinlock> guard(lock_);
    progress_locked();
  } else {
    progress_locked();
  }
}

// ---------------------------------------------------------------------------
// Progress engine (lock held)
// ---------------------------------------------------------------------------

void Comm::post_or_backlog(int dst, const void* payload,
                           fabric::MsgMeta meta) {
  auto& queue = backlog_[dst];
  if (queue.empty()) {
    const fabric::PostResult r =
        channel_.send(static_cast<fabric::Rank>(dst), payload, meta);
    if (r == fabric::PostResult::Ok) return;
  }
  // Copy into the backlog; flushed in order by progress. This is MPI's
  // missing back pressure: the producer never blocks, memory grows instead.
  BacklogEntry entry;
  entry.payload.resize(meta.size);
  if (meta.size > 0) std::memcpy(entry.payload.data(), payload, meta.size);
  entry.meta = meta;
  queue.push_back(std::move(entry));
  backlog_bytes_ += meta.size;
  stats_.backlogged_sends.fetch_add(1, std::memory_order_relaxed);
  track_internal_alloc(meta.size);
}

void Comm::flush_backlog_locked() {
  for (auto& [dst, queue] : backlog_) {
    while (!queue.empty()) {
      BacklogEntry& entry = queue.front();
      const fabric::PostResult r = channel_.send(
          static_cast<fabric::Rank>(dst), entry.payload.data(), entry.meta);
      if (r != fabric::PostResult::Ok) break;  // keep per-link order
      backlog_bytes_ -= entry.meta.size;
      track_internal_free(entry.meta.size);
      queue.pop_front();
    }
  }
}

void Comm::progress_locked() {
  flush_backlog_locked();

  // Retry rendezvous puts that soft-failed.
  std::size_t n = pending_puts_.size();
  while (n-- > 0) {
    PendingPut pp = pending_puts_.front();
    pending_puts_.pop_front();
    auto* sreq = reinterpret_cast<RequestImpl*>(pp.send_handle);
    fabric::MsgMeta meta;
    meta.kind = static_cast<std::uint8_t>(WireKind::Fin);
    meta.imm = pp.recv_handle;
    const fabric::PostResult r =
        channel_.put(static_cast<fabric::Rank>(pp.dst), pp.rkey, 0,
                     sreq->send_buffer, pp.size, /*notify=*/true, meta);
    if (r == fabric::PostResult::Ok) {
      sreq->complete.store(true, std::memory_order_release);
      pinned_.erase(sreq);
    } else {
      pending_puts_.push_back(pp);
    }
  }

  while (auto cqe = channel_.poll()) handle_cqe_locked(*cqe);
}

void Comm::handle_cqe_locked(const fabric::Cqe& cqe) {
  const auto kind = static_cast<WireKind>(cqe.meta.kind);
  switch (kind) {
    case WireKind::Eager:
      handle_eager_locked(cqe);
      break;
    case WireKind::Rts:
      handle_rts_locked(cqe);
      break;
    case WireKind::Rtr:
      handle_rtr_locked(cqe);
      break;
    case WireKind::Fin: {
      auto* rreq = reinterpret_cast<RequestImpl*>(cqe.meta.imm);
      if (rreq->rkey != fabric::kInvalidRKey) {
        endpoint_.deregister_memory(rreq->rkey);
        rreq->rkey = fabric::kInvalidRKey;
      }
      rreq->complete.store(true, std::memory_order_release);
      pinned_.erase(rreq);
      break;
    }
    case WireKind::RmaPut:
    case WireKind::RmaSync:
    case WireKind::RmaPost: {
      const std::uint64_t win_id =
          kind == WireKind::RmaPut ? cqe.meta.imm : cqe.meta.imm2;
      auto it = windows_.find(win_id);
      if (it != windows_.end()) it->second->on_wire_event(kind, cqe.meta);
      break;
    }
    case WireKind::RmaGet: {
      auto it = windows_.find(cqe.meta.imm2);
      if (it != windows_.end())
        it->second->on_get_request(static_cast<int>(cqe.meta.src),
                                   cqe.buffer);
      break;
    }
    case WireKind::RmaGetDone: {
      auto* flag = reinterpret_cast<std::atomic<bool>*>(cqe.meta.imm);
      flag->store(true, std::memory_order_release);
      break;
    }
    case WireKind::DirectPut:
      // Direct-write notification (DESIGN.md §15): the payload already sits
      // in the registered segment; surface the completion to the backend.
      if (direct_handler_) direct_handler_(cqe.meta);
      break;
  }

  // Recycle the internal receive buffer (Fin / RmaPut are imm-only).
  if (cqe.kind == fabric::Cqe::Kind::Recv) {
    const std::size_t mtu = fabric_.config().mtu;
    endpoint_.post_rx(
        {rx_slab_.get() + cqe.rx_context * mtu, mtu, cqe.rx_context});
  }
}

void Comm::handle_eager_locked(const fabric::Cqe& cqe) {
  const int src = static_cast<int>(cqe.meta.src);
  const int tag = static_cast<int>(cqe.meta.tag);
  Request req = match_prq_locked(src, tag);
  if (req) {
    assert(cqe.meta.size <= req->capacity && "recv buffer too small");
    std::memcpy(req->buffer, cqe.buffer, cqe.meta.size);
    req->status = Status{src, tag, cqe.meta.size};
    req->complete.store(true, std::memory_order_release);
    pinned_.erase(req.get());
    return;
  }
  // Unexpected: copy into internal heap buffer.
  stats_.unexpected_msgs.fetch_add(1, std::memory_order_relaxed);
  UmqEntry entry;
  entry.src = src;
  entry.tag = tag;
  entry.size = cqe.meta.size;
  entry.is_rts = false;
  entry.data.reset(new std::byte[cqe.meta.size]);
  std::memcpy(entry.data.get(), cqe.buffer, cqe.meta.size);
  track_internal_alloc(cqe.meta.size);
  umq_.push_back(std::move(entry));
}

void Comm::handle_rts_locked(const fabric::Cqe& cqe) {
  RtsWire rts;
  std::memcpy(&rts, cqe.buffer, sizeof(rts));
  const int src = static_cast<int>(cqe.meta.src);
  const int tag = static_cast<int>(cqe.meta.tag);

  Request req = match_prq_locked(src, tag);
  if (req) {
    req->status = Status{src, tag, static_cast<std::size_t>(rts.size)};
    issue_rtr_locked(src, rts.send_handle, req);
    return;
  }
  stats_.unexpected_msgs.fetch_add(1, std::memory_order_relaxed);
  UmqEntry entry;
  entry.src = src;
  entry.tag = tag;
  entry.size = static_cast<std::size_t>(rts.size);
  entry.is_rts = true;
  entry.send_handle = rts.send_handle;
  umq_.push_back(std::move(entry));
}

void Comm::issue_rtr_locked(int dst, std::uint64_t send_handle,
                            const Request& recv_req) {
  const std::size_t size = recv_req->status.size;
  assert(size <= recv_req->capacity && "recv buffer too small for rendezvous");
  recv_req->rkey = endpoint_.register_memory(recv_req->buffer, size);
  RtrWire rtr{send_handle, reinterpret_cast<std::uint64_t>(recv_req.get()),
              recv_req->rkey, static_cast<std::uint64_t>(size)};
  fabric::MsgMeta meta;
  meta.kind = static_cast<std::uint8_t>(WireKind::Rtr);
  meta.size = sizeof(rtr);
  post_or_backlog(dst, &rtr, meta);
}

void Comm::handle_rtr_locked(const fabric::Cqe& cqe) {
  RtrWire rtr;
  std::memcpy(&rtr, cqe.buffer, sizeof(rtr));
  auto* sreq = reinterpret_cast<RequestImpl*>(rtr.send_handle);
  const int dst = static_cast<int>(cqe.meta.src);

  fabric::MsgMeta meta;
  meta.kind = static_cast<std::uint8_t>(WireKind::Fin);
  meta.imm = rtr.recv_handle;
  const fabric::PostResult r = channel_.put(
      static_cast<fabric::Rank>(dst), rtr.rkey, 0, sreq->send_buffer,
      static_cast<std::size_t>(rtr.size), /*notify=*/true, meta);
  if (r == fabric::PostResult::Ok) {
    sreq->complete.store(true, std::memory_order_release);
    pinned_.erase(sreq);
  } else {
    pending_puts_.push_back(PendingPut{dst, rtr.rkey, rtr.send_handle,
                                       rtr.recv_handle,
                                       static_cast<std::size_t>(rtr.size)});
  }
}

void Comm::rma_ctrl_send(int dst, fabric::MsgMeta meta, const void* payload) {
  CallGuard guard(*this);
  post_or_backlog(dst, payload, meta);
}

bool Comm::rma_try_put(int target, std::uint32_t rkey, std::size_t offset,
                       const void* src, std::size_t n, std::uint64_t win_id) {
  CallGuard guard(*this);
  fabric::MsgMeta meta;
  meta.kind = static_cast<std::uint8_t>(WireKind::RmaPut);
  meta.imm = win_id;
  return channel_.put(static_cast<fabric::Rank>(target), rkey, offset, src, n,
                      /*notify=*/true, meta) == fabric::PostResult::Ok;
}

fabric::PostResult Comm::direct_try_put(int target, std::uint64_t rkey,
                                        const void* src, std::size_t n,
                                        std::uint64_t imm,
                                        std::uint64_t imm2) {
  CallGuard guard(*this);
  fabric::MsgMeta meta;
  meta.kind = static_cast<std::uint8_t>(WireKind::DirectPut);
  meta.size = static_cast<std::uint32_t>(n);
  meta.imm = imm;
  meta.imm2 = imm2;
  return channel_.put(static_cast<fabric::Rank>(target),
                      static_cast<fabric::RKey>(rkey), /*offset=*/0, src, n,
                      /*notify=*/true, meta);
}

void Comm::register_window(std::uint64_t id, Window* win) {
  CallGuard guard(*this);
  windows_.emplace(id, win);
}

void Comm::deregister_window(std::uint64_t id) {
  CallGuard guard(*this);
  windows_.erase(id);
}

}  // namespace lcr::mpi
