#include "comm/lci_backend.hpp"

#include <algorithm>
#include <mutex>

#include "comm/direct.hpp"
#include "runtime/cpu_relax.hpp"

namespace lcr::comm {

namespace {
constexpr std::uint32_t kDataTag = 7;
}

LciBackend::LciBackend(fabric::Fabric& fabric, int rank,
                       const BackendOptions& options)
    : queue_(fabric, static_cast<fabric::Rank>(rank),
             lci::QueueConfig{
                 lci::DeviceConfig{/*tx_packets=*/64,
                                   /*rx_packets=*/options.lci_rx_packets != 0
                                       ? options.lci_rx_packets
                                       : fabric.config().default_rx_buffers,
                                   /*pool_caches=*/8},
                 options.tracker}),
      tracker_(options.tracker) {
  // Must be installed before any concurrent progress driver exists: the
  // handler slot is written once here and only read afterwards.
  queue_.set_signal_handler([this](const fabric::MsgMeta& meta) {
    DirectSignal sig = unpack_direct_signal(static_cast<int>(meta.src),
                                            meta.imm, meta.imm2);
    std::lock_guard<rt::Spinlock> guard(direct_lock_);
    direct_signals_.push_back(sig);
  });
}

LciBackend::~LciBackend() {
  // Drain pending rendezvous puts while the in-flight send slots they read
  // are still alive, then reap.
  queue_.progress_all();
  reap_sends();
}

void LciBackend::begin_phase(const PhaseSpec&) {}

BufferLease LciBackend::acquire(int dst, std::size_t max_bytes) {
  if (max_bytes <= queue_.eager_limit()) {
    if (lci::Packet* p = queue_.lease_tx_packet(); p != nullptr) {
      BufferLease lease;
      lease.data = p->data;
      lease.capacity = std::min(p->capacity, queue_.eager_limit());
      lease.pooled = true;
      lease.token = p;
      return lease;
    }
    // Pool at the lease floor: fall through to a heap lease rather than
    // making the caller spin; commit() then pays one copy via send_enq.
  }
  return Backend::acquire(dst, max_bytes);
}

bool LciBackend::commit(int dst, BufferLease& lease, std::size_t bytes) {
  auto slot = std::make_unique<SendSlot>();
  slot->bytes = bytes;
  const auto rank = static_cast<fabric::Rank>(dst);
  // SEND-ENQ: a false return is the non-fatal resource-exhaustion signal;
  // surface it so the caller can receive/scatter (back pressure), not spin.
  // The lease stays intact (a pooled packet stays leased) for the retry.
  const bool sent =
      lease.pooled
          ? queue_.send_leased(static_cast<lci::Packet*>(lease.token), bytes,
                               rank, kDataTag, slot->req)
          : queue_.send_enq(lease.data, bytes, rank, kDataTag, slot->req);
  if (!sent) return false;
  // A rendezvous send reads the heap buffer until the request completes.
  if (!lease.pooled) slot->payload = std::move(lease.heap);
  {
    std::lock_guard<rt::Spinlock> guard(send_lock_);
    in_flight_sends_.push_back(std::move(slot));
  }
  reap_sends();
  lease = BufferLease{};
  return true;
}

void LciBackend::abandon(BufferLease& lease) {
  if (lease.pooled)
    queue_.return_tx_packet(static_cast<lci::Packet*>(lease.token));
  lease = BufferLease{};
}

void LciBackend::reap_sends() {
  std::lock_guard<rt::Spinlock> guard(send_lock_);
  while (!in_flight_sends_.empty() && in_flight_sends_.front()->req.done()) {
    if (tracker_ != nullptr)
      tracker_->on_free(in_flight_sends_.front()->bytes);
    in_flight_sends_.pop_front();
  }
}

void LciBackend::flush() {
  // All sends were injected synchronously (eager) or are progressing
  // (rendezvous); nothing to force. Reap what has finished.
  reap_sends();
}

bool LciBackend::try_recv(InMessage& out) {
  // First: any rendezvous receive whose RDMA completed?
  {
    std::lock_guard<rt::Spinlock> guard(rdv_lock_);
    for (auto it = pending_rdv_.begin(); it != pending_rdv_.end(); ++it) {
      if ((*it)->done()) {
        lci::Request* req = it->release();
        pending_rdv_.erase(it);
        out.src = static_cast<int>(req->peer);
        out.data = static_cast<const std::byte*>(req->buffer);
        out.size = req->size;
        out.release = [this, req] {
          queue_.release(*req);
          delete req;
        };
        return true;
      }
    }
  }

  // RECV-DEQ: first-packet policy, any source, any tag.
  auto req = std::make_unique<lci::Request>();
  if (!queue_.recv_deq(*req)) return false;

  if (!req->done()) {
    // Rendezvous in progress: park it until the server's RDMA notification.
    std::lock_guard<rt::Spinlock> guard(rdv_lock_);
    pending_rdv_.push_back(std::move(req));
    return false;
  }

  lci::Request* raw = req.release();
  out.src = static_cast<int>(raw->peer);
  out.data = static_cast<const std::byte*>(raw->buffer);
  out.size = raw->size;
  out.release = [this, raw] {
    queue_.release(*raw);
    delete raw;
  };
  return true;
}

void LciBackend::progress() {
  queue_.progress();
  reap_sends();
}

void LciBackend::end_phase() { reap_sends(); }

DirectRegion LciBackend::register_direct_region(int /*src*/, std::byte* base,
                                                std::size_t bytes,
                                                std::uint32_t generation) {
  DirectRegion r;
  r.token = static_cast<std::uint64_t>(
      queue_.device().register_memory(base, bytes));
  r.capacity = bytes;
  r.generation = generation;
  region_book_.add(r.token, base, bytes, generation);
  return r;
}

void LciBackend::release_direct_region(int /*src*/,
                                       const DirectRegion& region) {
  if (!region.valid()) return;
  region_book_.remove(region.token);
  queue_.device().deregister_memory(
      static_cast<fabric::RKey>(region.token));
}

DirectPutStatus LciBackend::direct_put(int dst, const DirectRegion& region,
                                       const void* payload, std::size_t bytes,
                                       std::uint32_t phase_id,
                                       std::uint32_t pattern_key) {
  if (!region.valid() || bytes > region.capacity)
    return DirectPutStatus::Unavailable;
  fabric::MsgMeta meta;
  meta.kind = static_cast<std::uint8_t>(lci::PacketType::SIGNAL);
  meta.size = static_cast<std::uint32_t>(bytes);
  meta.imm = pack_direct_imm(region.generation, phase_id);
  meta.imm2 = pack_direct_imm2(pattern_key,
                               static_cast<std::uint32_t>(bytes));
  // The reliability layer snapshots the payload for retransmission, so the
  // caller's staging buffer is free as soon as this returns Ok.
  const fabric::PostResult r = queue_.device().lc_put_ex(
      static_cast<fabric::Rank>(dst), static_cast<fabric::RKey>(region.token),
      /*offset=*/0, payload, bytes, /*notify=*/true, meta);
  switch (r) {
    case fabric::PostResult::Ok:
      return DirectPutStatus::Ok;
    case fabric::PostResult::NoRxBuffer:
    case fabric::PostResult::Throttled:
    case fabric::PostResult::CqFull:
    case fabric::PostResult::RetransmitFull:
      return DirectPutStatus::Retry;
    default:
      // Invalid (stale rkey after a revive) / TooLarge / Down: this put can
      // never land - the caller reverts to the two-sided path.
      return DirectPutStatus::Unavailable;
  }
}

bool LciBackend::poll_direct(DirectSignal& out) {
  std::lock_guard<rt::Spinlock> guard(direct_lock_);
  if (direct_signals_.empty()) return false;
  out = direct_signals_.front();
  direct_signals_.pop_front();
  return true;
}

}  // namespace lcr::comm
