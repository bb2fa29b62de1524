#include "lci/queue.hpp"

#include "lci/completion.hpp"

#include <cassert>
#include <cstring>
#include <mutex>

#include "runtime/cpu_relax.hpp"
#include "telemetry/trace.hpp"

namespace lcr::lci {

namespace {
/// Retire a request: the single-flag completion store, plus the optional
/// aggregate counter signal. The signal pointer must be read BEFORE the
/// Done store: the caller owns the Request and may destroy it the moment it
/// observes Done (a rendezvous send completes from the progress thread), so
/// no field may be touched after the store. The CompletionCounter itself must
/// outlive its requests by contract (callers wait on counter.complete()).
inline void mark_done(Request& req) {
  CompletionCounter* const signal = req.signal;
  req.status.store(ReqStatus::Done, std::memory_order_release);
  if (signal != nullptr) signal->signal();
}

/// Free tx packets a buffer lease may not consume: leases are held across
/// the whole gather of a range, so without a floor a wide parallel gather
/// could drain the pool and deadlock against the RTS/RTR control sends that
/// would free it.
constexpr std::size_t kTxLeaseFloor = 8;
}  // namespace

Queue::Queue(fabric::Fabric& fabric, fabric::Rank rank, QueueConfig cfg)
    : device_(fabric, rank, cfg.device),
      incoming_(cfg.device.rx_packets),
      tracker_(cfg.tracker) {
  recv_q_depth_ = &fabric.telemetry().histogram("lci.recv_q_depth");
  stat_reg_ = fabric.telemetry().register_probes({
      {"lci.eager_sends", &stats_.eager_sends},
      {"lci.rdv_sends", &stats_.rdv_sends},
      {"lci.send_retries", &stats_.send_retries},
      {"lci.recvs", &stats_.recvs},
      {"lci.progress_events", &stats_.progress_events},
      {"lci.lease_sends", &stats_.lease_sends},
  });
}

bool Queue::send_enq(const void* buf, std::size_t size, fabric::Rank dst,
                     std::uint32_t tag, Request& req) {
  Packet* p = device_.tx_alloc();  // packetAlloc(P, ...)
  if (p == nullptr) {
    stats_.send_retries.fetch_add(1, std::memory_order_relaxed);
    return false;  // pool exhausted: non-fatal, caller retries
  }

  req.reset();
  req.peer = dst;
  req.tag = tag;
  req.buffer = const_cast<void*>(buf);
  req.size = size;

  if (size <= device_.eager_limit()) {
    // Eager path: copy into the packet, send, complete immediately.
    std::memcpy(p->data, buf, size);
    fabric::MsgMeta meta;
    meta.kind = static_cast<std::uint8_t>(PacketType::EGR);
    meta.tag = tag;
    meta.size = static_cast<std::uint32_t>(size);
    const fabric::PostResult r = device_.lc_send(dst, p->data, meta);
    device_.tx_free(p);
    if (r != fabric::PostResult::Ok) {
      stats_.send_retries.fetch_add(1, std::memory_order_relaxed);
      return false;  // receiver out of buffers / throttled: retry later
    }
    stats_.eager_sends.fetch_add(1, std::memory_order_relaxed);
    mark_done(req);
    return true;
  }

  // Rendezvous path: send an RTS carrying the size and our request handle.
  req.status.store(ReqStatus::Pending, std::memory_order_release);
  auto* rts = reinterpret_cast<RtsPayload*>(p->data);
  rts->msg_size = size;
  rts->send_req = reinterpret_cast<std::uint64_t>(&req);
  fabric::MsgMeta meta;
  meta.kind = static_cast<std::uint8_t>(PacketType::RTS);
  meta.tag = tag;
  meta.size = sizeof(RtsPayload);
  const fabric::PostResult r = device_.lc_send(dst, p->data, meta);
  device_.tx_free(p);
  if (r != fabric::PostResult::Ok) {
    stats_.send_retries.fetch_add(1, std::memory_order_relaxed);
    req.status.store(ReqStatus::Invalid, std::memory_order_release);
    return false;
  }
  stats_.rdv_sends.fetch_add(1, std::memory_order_relaxed);
  return true;
}

Packet* Queue::lease_tx_packet() {
  return device_.tx_alloc_reserve(kTxLeaseFloor);
}

bool Queue::send_leased(Packet* p, std::size_t size, fabric::Rank dst,
                        std::uint32_t tag, Request& req) {
  assert(size <= device_.eager_limit());
  req.reset();
  req.peer = dst;
  req.tag = tag;
  req.buffer = p->data;
  req.size = size;

  fabric::MsgMeta meta;
  meta.kind = static_cast<std::uint8_t>(PacketType::EGR);
  meta.tag = tag;
  meta.size = static_cast<std::uint32_t>(size);
  const fabric::PostResult r = device_.lc_send(dst, p->data, meta);
  if (r != fabric::PostResult::Ok) {
    // Soft failure: unlike send_enq, keep the packet leased so the
    // already-serialized payload is not lost.
    stats_.send_retries.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  device_.tx_free(p);  // retransmit buffering lives below lc_send
  stats_.eager_sends.fetch_add(1, std::memory_order_relaxed);
  stats_.lease_sends.fetch_add(1, std::memory_order_relaxed);
  mark_done(req);
  return true;
}

bool Queue::recv_deq(Request& req) {
  std::optional<Packet*> popped = incoming_.try_pop();  // dequeue(Q)
  if (!popped) return false;
  Packet* p = *popped;

  req.reset();
  req.peer = p->meta.src;
  req.tag = p->meta.tag;

  const auto type = static_cast<PacketType>(p->meta.kind);
  if (type == PacketType::EGR) {
    // Zero-copy view into the pool packet; caller releases when done.
    req.size = p->meta.size;
    req.buffer = p->data;
    req.packet = p;
    mark_done(req);
    stats_.recvs.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  assert(type == PacketType::RTS);
  RtsPayload rts;
  std::memcpy(&rts, p->data, sizeof(rts));

  // Allocate the target buffer (the paper uses Abelian's allocator; we use
  // the tracked heap so Fig-5 accounting sees it) and expose it for the put.
  req.size = static_cast<std::size_t>(rts.msg_size);
  req.buffer = ::operator new(req.size);
  req.owns_buffer = true;
  if (tracker_ != nullptr) tracker_->on_alloc(req.size);
  req.rkey = device_.register_memory(req.buffer, req.size);
  req.status.store(ReqStatus::Pending, std::memory_order_release);

  // Reply with the RTR; reuse the RTS packet slab as the send staging.
  RtrPayload rtr;
  rtr.send_req = rts.send_req;
  rtr.recv_req = reinterpret_cast<std::uint64_t>(&req);
  rtr.rkey = req.rkey;
  rtr.msg_size = rts.msg_size;
  fabric::MsgMeta meta;
  meta.kind = static_cast<std::uint8_t>(PacketType::RTR);
  meta.tag = req.tag;
  meta.size = sizeof(RtrPayload);
  if (device_.lc_send(req.peer, &rtr, meta) != fabric::PostResult::Ok) {
    // Reverse link full. DO NOT spin here: recv_deq runs on engine threads,
    // and a thread that blocks on the reply stops draining its own receive
    // side - with the peer in the symmetric state that is a cross-host
    // deadlock. Park the reply for progress() instead.
    std::lock_guard<rt::Spinlock> guard(rtr_lock_);
    pending_rtrs_.push_back(PendingRtr{req.peer, req.tag, rtr});
  }

  device_.repost_rx(p);  // give the slab back to the NIC receive window
  stats_.recvs.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void Queue::release(Request& req) {
  if (req.packet != nullptr) {
    device_.repost_rx(req.packet);
    req.packet = nullptr;
    req.buffer = nullptr;
  } else if (req.owns_buffer && req.buffer != nullptr) {
    if (tracker_ != nullptr) tracker_->on_free(req.size);
    ::operator delete(req.buffer);
    req.buffer = nullptr;
    req.owns_buffer = false;
  }
}

void Queue::serve_rtr(const RtrPayload& rtr, fabric::Rank peer) {
  auto* sreq = reinterpret_cast<Request*>(rtr.send_req);
  const fabric::PostResult r =
      device_.lc_put(peer, rtr.rkey, sreq->buffer,
                     static_cast<std::size_t>(rtr.msg_size), rtr.recv_req);
  if (r == fabric::PostResult::Ok) {
    mark_done(*sreq);
  } else {
    // Soft failure (throttled / CQ full): retry on a later progress step.
    std::lock_guard<rt::Spinlock> guard(put_lock_);
    pending_puts_.push_back(PendingPut{peer, rtr});
  }
}

bool Queue::retry_pending_puts() {
  bool did_work = false;
  std::lock_guard<rt::Spinlock> guard(put_lock_);
  std::size_t n = pending_puts_.size();
  while (n-- > 0) {
    PendingPut pp = pending_puts_.front();
    pending_puts_.pop_front();
    auto* sreq = reinterpret_cast<Request*>(pp.rtr.send_req);
    const fabric::PostResult r = device_.lc_put(
        pp.peer, pp.rtr.rkey, sreq->buffer,
        static_cast<std::size_t>(pp.rtr.msg_size), pp.rtr.recv_req);
    if (r == fabric::PostResult::Ok) {
      mark_done(*sreq);
      did_work = true;
    } else {
      pending_puts_.push_back(pp);
    }
  }
  return did_work;
}

bool Queue::retry_pending_rtrs() {
  bool did_work = false;
  std::lock_guard<rt::Spinlock> guard(rtr_lock_);
  std::size_t n = pending_rtrs_.size();
  while (n-- > 0) {
    PendingRtr pr = pending_rtrs_.front();
    pending_rtrs_.pop_front();
    fabric::MsgMeta meta;
    meta.kind = static_cast<std::uint8_t>(PacketType::RTR);
    meta.tag = pr.tag;
    meta.size = sizeof(RtrPayload);
    if (device_.lc_send(pr.peer, &pr.rtr, meta) == fabric::PostResult::Ok) {
      did_work = true;
    } else {
      pending_rtrs_.push_back(pr);
    }
  }
  return did_work;
}

bool Queue::dispatch_one_event() {
  std::optional<ProgressEvent> ev = device_.lc_progress();
  if (!ev) return false;
  stats_.progress_events.fetch_add(1, std::memory_order_relaxed);

  switch (ev->type) {
    case PacketType::EGR:
    case PacketType::RTS:
      // enqueue(Q, p); capacity == rx window size, cannot overflow.
      incoming_.push(ev->packet);
      if (telemetry::enabled())
        recv_q_depth_->record(incoming_.approx_size());
      break;
    case PacketType::RTR: {
      RtrPayload rtr;
      std::memcpy(&rtr, ev->packet->data, sizeof(rtr));
      const fabric::Rank peer = ev->meta.src;
      device_.repost_rx(ev->packet);
      serve_rtr(rtr, peer);
      break;
    }
    case PacketType::RDMA: {
      // Put notification: retire the receiver's request.
      auto* rreq = reinterpret_cast<Request*>(ev->meta.imm);
      if (rreq->rkey != fabric::kInvalidRKey) {
        device_.deregister_memory(rreq->rkey);
        rreq->rkey = fabric::kInvalidRKey;
      }
      mark_done(*rreq);
      break;
    }
    case PacketType::SIGNAL:
      // Direct-write put notification: the payload already sits in the
      // registered region (the fabric wrote it before raising the CQE), so
      // there is nothing to receive - just surface the completion.
      if (signal_handler_) signal_handler_(ev->meta);
      break;
  }
  return true;
}

bool Queue::progress() {
  bool did_work = retry_pending_puts();
  did_work |= retry_pending_rtrs();
  did_work |= dispatch_one_event();
  return did_work;
}

void Queue::send_blocking(const void* buf, std::size_t size, fabric::Rank dst,
                          std::uint32_t tag) {
  Request req;
  rt::Backoff backoff;
  while (!send_enq(buf, size, dst, tag, req)) {
    progress();
    backoff.pause();
  }
  while (!req.done()) {
    progress();
    rt::cpu_pause();
  }
}

void Queue::recv_blocking(Request& req) {
  rt::Backoff backoff;
  while (!recv_deq(req)) {
    progress();
    backoff.pause();
  }
  while (!req.done()) {
    progress();
    rt::cpu_pause();
  }
}

}  // namespace lcr::lci
