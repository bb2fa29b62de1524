#include "comm/mpi_probe_backend.hpp"

#include <cstring>
#include <mutex>

#include "comm/direct.hpp"
#include "mpilite/personality.hpp"
#include "runtime/timer.hpp"

namespace lcr::comm {

namespace {

constexpr int kDataTag = 7;
constexpr int kDirectTag = 8;

/// Wire prefix of an emulated direct put: the state a NIC would carry in
/// the work request (target token) and the notification immediates.
struct DirectFrame {
  std::uint64_t token;
  std::uint64_t imm;   // (generation << 32) | phase_id
  std::uint64_t imm2;  // (pattern_key << 32) | bytes
};

}  // namespace

MpiProbeBackend::MpiProbeBackend(fabric::Fabric& fabric, int rank,
                                 const BackendOptions& options)
    : comm_(fabric, rank, mpi::personality_by_name(options.mpi_personality),
            mpi::ThreadLevel::Funneled,
            mpi::CommConfig{fabric.config().default_rx_buffers,
                            /*internal_tracker=*/nullptr}),
      tracker_(options.tracker),
      timeout_ns_(options.aggregation_timeout_us * 1000),
      agg_(fabric.num_ranks()) {}

MpiProbeBackend::~MpiProbeBackend() = default;

void MpiProbeBackend::begin_phase(const PhaseSpec&) {}

void MpiProbeBackend::append_record(AggBuffer& agg, const std::byte* record,
                                    std::size_t bytes) {
  const std::uint32_t size = static_cast<std::uint32_t>(bytes);
  const std::size_t old = agg.bytes.size();
  agg.bytes.resize(old + sizeof(size) + bytes);
  std::memcpy(agg.bytes.data() + old, &size, sizeof(size));
  std::memcpy(agg.bytes.data() + old + sizeof(size), record, bytes);
  if (tracker_ != nullptr) tracker_->on_alloc(sizeof(size) + bytes);
  if (agg.oldest_ns == 0) agg.oldest_ns = rt::now_ns();
}

void MpiProbeBackend::flush_agg(int dst) {
  AggBuffer& agg = agg_[static_cast<std::size_t>(dst)];
  if (agg.bytes.empty()) return;
  outstanding_.emplace_back();
  OutstandingSend& out = outstanding_.back();
  out.bytes = std::move(agg.bytes);
  agg.bytes.clear();
  agg.oldest_ns = 0;
  out.req = comm_.isend(out.bytes.data(), out.bytes.size(), dst, kDataTag);
}

bool MpiProbeBackend::commit(int dst, BufferLease& lease, std::size_t bytes) {
  // MPI never pushes back: everything is accepted and buffered.
  AggBuffer& agg = agg_[static_cast<std::size_t>(dst)];
  append_record(agg, lease.data, bytes);
  // Large items are not aggregated (the buffered layer only batches items
  // below the eager-send limit): flushing right after the append sends the
  // item as its own record, behind whatever was pending, preserving order.
  if (bytes >= comm_.eager_limit() || agg.bytes.size() >= comm_.eager_limit())
    flush_agg(dst);
  // The record was copied into the aggregate (tracked above); the caller's
  // gather buffer is done.
  if (tracker_ != nullptr) tracker_->on_free(bytes);
  lease = BufferLease{};
  return true;
}

void MpiProbeBackend::flush() {
  for (int dst = 0; dst < comm_.size(); ++dst) flush_agg(dst);
}

void MpiProbeBackend::reap_outstanding() {
  for (auto it = outstanding_.begin(); it != outstanding_.end();) {
    if (comm_.test(it->req)) {
      if (tracker_ != nullptr) tracker_->on_free(it->bytes.size());
      it = outstanding_.erase(it);
    } else {
      ++it;
    }
  }
}

void MpiProbeBackend::pump_receives() {
  // MPI_Iprobe with wildcards, then MPI_Irecv of the discovered size.
  mpi::Status st;
  while (comm_.iprobe(mpi::kAnySource, kDataTag, &st)) {
    auto buf = std::make_shared<RecvBuf>();
    buf->bytes.resize(st.size);
    buf->src = st.source;
    if (tracker_ != nullptr) tracker_->on_alloc(st.size);
    pending_recvs_.push_back(PendingRecv{
        buf, comm_.irecv(buf->bytes.data(), st.size, st.source, st.tag)});
  }
  // Emulated direct puts arrive on their own tag and never enter the
  // record/aggregate path: the pump performs the region write itself.
  while (comm_.iprobe(mpi::kAnySource, kDirectTag, &st)) {
    auto buf = std::make_shared<RecvBuf>();
    buf->bytes.resize(st.size);
    buf->src = st.source;
    pending_direct_.push_back(PendingRecv{
        buf, comm_.irecv(buf->bytes.data(), st.size, st.source, st.tag)});
  }
  for (auto it = pending_recvs_.begin(); it != pending_recvs_.end();) {
    if (comm_.test(it->req)) {
      split_records(it->buf);
      it = pending_recvs_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = pending_direct_.begin(); it != pending_direct_.end();) {
    if (comm_.test(it->req)) {
      deliver_direct(it->buf);
      it = pending_direct_.erase(it);
    } else {
      ++it;
    }
  }
}

void MpiProbeBackend::deliver_direct(const std::shared_ptr<RecvBuf>& buf) {
  if (buf->bytes.size() < sizeof(DirectFrame)) return;  // malformed: drop
  DirectFrame frame;
  std::memcpy(&frame, buf->bytes.data(), sizeof(frame));
  DirectSignal sig = unpack_direct_signal(buf->src, frame.imm, frame.imm2);
  const std::size_t payload = buf->bytes.size() - sizeof(frame);
  if (payload != sig.bytes) return;  // truncated frame: drop
  // The validation ladder a NIC walks in hardware: token must be live, the
  // claimed generation must match the registration, the write must fit the
  // registered extent. Only then does the payload touch memory.
  lci::RegionBook::Entry entry;
  if (region_book_.note_put(frame.token, 0, payload, sig.generation) !=
          lci::RegionBook::Verdict::Ok ||
      !region_book_.lookup(frame.token, entry))
    return;  // rejected puts are tallied in the book and never land
  std::memcpy(entry.base, buf->bytes.data() + sizeof(frame), payload);
  std::lock_guard<rt::Spinlock> guard(direct_lock_);
  direct_signals_.push_back(sig);
}

void MpiProbeBackend::split_records(std::shared_ptr<RecvBuf> buf) {
  std::size_t off = 0;
  rt::MemTracker* tracker = tracker_;
  const std::size_t total = buf->bytes.size();
  while (off < buf->bytes.size()) {
    std::uint32_t size = 0;
    std::memcpy(&size, buf->bytes.data() + off, sizeof(size));
    off += sizeof(size);
    InMessage msg;
    msg.src = buf->src;
    msg.data = buf->bytes.data() + off;
    msg.size = size;
    // Shared ownership: the aggregate is freed (and accounted) when the last
    // record view is released.
    msg.release = [buf, tracker, total] {
      if (buf.use_count() == 1 && tracker != nullptr) tracker->on_free(total);
    };
    ready_.push_back(std::move(msg));
    off += size;
  }
}

bool MpiProbeBackend::try_recv(InMessage& out) {
  if (ready_.empty()) return false;
  out = std::move(ready_.front());
  ready_.pop_front();
  return true;
}

void MpiProbeBackend::progress() {
  // Timeout-driven flush of aged sub-eager aggregates ("until the oldest
  // buffered message times out").
  const std::uint64_t now = rt::now_ns();
  for (int dst = 0; dst < comm_.size(); ++dst) {
    AggBuffer& agg = agg_[static_cast<std::size_t>(dst)];
    if (!agg.bytes.empty() && now - agg.oldest_ns >= timeout_ns_)
      flush_agg(dst);
  }
  reap_outstanding();
  pump_receives();
}

void MpiProbeBackend::end_phase() {
  flush();
  reap_outstanding();
}

DirectRegion MpiProbeBackend::register_direct_region(
    int /*src*/, std::byte* base, std::size_t bytes,
    std::uint32_t generation) {
  DirectRegion r;
  {
    std::lock_guard<rt::Spinlock> guard(direct_lock_);
    r.token = next_direct_token_++;
  }
  r.capacity = bytes;
  r.generation = generation;
  region_book_.add(r.token, base, bytes, generation);
  return r;
}

void MpiProbeBackend::release_direct_region(int /*src*/,
                                            const DirectRegion& region) {
  if (!region.valid()) return;
  region_book_.remove(region.token);
}

DirectPutStatus MpiProbeBackend::direct_put(int dst,
                                            const DirectRegion& region,
                                            const void* payload,
                                            std::size_t bytes,
                                            std::uint32_t phase_id,
                                            std::uint32_t pattern_key) {
  if (!region.valid() || bytes > region.capacity)
    return DirectPutStatus::Unavailable;
  DirectFrame frame;
  frame.token = region.token;
  frame.imm = pack_direct_imm(region.generation, phase_id);
  frame.imm2 = pack_direct_imm2(pattern_key, static_cast<std::uint32_t>(bytes));
  outstanding_.emplace_back();
  OutstandingSend& out = outstanding_.back();
  out.bytes.resize(sizeof(frame) + bytes);
  std::memcpy(out.bytes.data(), &frame, sizeof(frame));
  std::memcpy(out.bytes.data() + sizeof(frame), payload, bytes);
  // The staging copy is comm-buffer working set; reap_outstanding frees
  // every completed OutstandingSend, so the alloc must be tracked here or
  // the tracker's current-bytes counter underflows.
  if (tracker_ != nullptr) tracker_->on_alloc(out.bytes.size());
  out.req = comm_.isend(out.bytes.data(), out.bytes.size(), dst, kDirectTag);
  return DirectPutStatus::Ok;  // MPI never pushes back: accepted and buffered
}

bool MpiProbeBackend::poll_direct(DirectSignal& out) {
  std::lock_guard<rt::Spinlock> guard(direct_lock_);
  if (direct_signals_.empty()) return false;
  out = direct_signals_.front();
  direct_signals_.pop_front();
  return true;
}

}  // namespace lcr::comm
