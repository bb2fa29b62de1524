#include "comm/mpi_rma_backend.hpp"

#include <cassert>
#include <cstring>
#include <mutex>

#include "comm/direct.hpp"
#include "mpilite/personality.hpp"

namespace lcr::comm {

MpiRmaBackend::MpiRmaBackend(fabric::Fabric& fabric, int rank,
                             const BackendOptions& options)
    // "this layer uses MPI_thread_multiple" - both the main compute thread
    // and the dedicated polling thread issue MPI commands.
    : comm_(fabric, rank, mpi::personality_by_name(options.mpi_personality),
            mpi::ThreadLevel::Multiple,
            // Two declared concurrent callers: the put-issuing compute path
            // and the dedicated polling thread.
            mpi::CommConfig{fabric.config().default_rx_buffers, nullptr, 2,
                            options.abort_check}),
      tracker_(options.tracker),
      delivered_(fabric.num_ranks(), false) {
  // Installed before the engine spawns its polling thread; the handler runs
  // under the comm lock on whichever thread drives progress.
  comm_.set_direct_handler([this](const fabric::MsgMeta& meta) {
    DirectSignal sig = unpack_direct_signal(static_cast<int>(meta.src),
                                            meta.imm, meta.imm2);
    std::lock_guard<rt::Spinlock> guard(direct_lock_);
    direct_signals_.push_back(sig);
  });
}

MpiRmaBackend::~MpiRmaBackend() {
  if (tracker_ != nullptr && window_bytes_ > 0)
    tracker_->on_free(window_bytes_);
}

MpiRmaBackend::WindowSet& MpiRmaBackend::ensure_window_set(
    const PhaseSpec& spec) {
  auto it = window_sets_.find(spec.pattern_key);
  if (it != window_sets_.end()) return it->second;

  // First communication with this (pattern x datatype): collectively create
  // the p windows with worst-case (all-nodes-active) preallocated buffers.
  const int p = comm_.size();
  const int me = comm_.rank();
  WindowSet set;
  set.recv_bufs.resize(static_cast<std::size_t>(p));
  set.recv_cap.resize(static_cast<std::size_t>(p));
  set.windows.resize(static_cast<std::size_t>(p));
  set.exposed.reset(new std::atomic<bool>[static_cast<std::size_t>(p)]);
  for (int j = 0; j < p; ++j)
    set.exposed[static_cast<std::size_t>(j)].store(false);
  for (int j = 0; j < p; ++j) {
    const std::size_t cap =
        j == me ? 64
                : std::max<std::size_t>(
                      64, spec.max_recv_bytes[static_cast<std::size_t>(j)]);
    set.recv_bufs[static_cast<std::size_t>(j)].reset(new std::byte[cap]);
    set.recv_cap[static_cast<std::size_t>(j)] = cap;
    window_bytes_ += cap;
    if (tracker_ != nullptr) tracker_->on_alloc(cap);
    set.windows[static_cast<std::size_t>(j)] = std::make_unique<mpi::Window>(
        comm_, set.recv_bufs[static_cast<std::size_t>(j)].get(), cap);
  }
  // Expose every foreign window to its owner immediately; grants accumulate.
  for (int j = 0; j < p; ++j) {
    if (j == me) continue;
    set.windows[static_cast<std::size_t>(j)]->post({j});
    set.exposed[static_cast<std::size_t>(j)].store(
        true, std::memory_order_release);
  }
  auto [pos, inserted] = window_sets_.emplace(spec.pattern_key, std::move(set));
  assert(inserted);
  return pos->second;
}

void MpiRmaBackend::begin_phase(const PhaseSpec& spec) {
  spec_ = &spec;
  current_ = &ensure_window_set(spec);
  std::fill(delivered_.begin(), delivered_.end(), false);
  // Make sure every source we expect from is exposed (re-post happens at
  // message release; first phase is covered by creation-time posts).
  for (int j : spec.recv_from) {
    if (!current_->exposed[static_cast<std::size_t>(j)].load(
            std::memory_order_acquire)) {
      current_->windows[static_cast<std::size_t>(j)]->post({j});
      current_->exposed[static_cast<std::size_t>(j)].store(
          true, std::memory_order_release);
    }
  }
  // Start the access epoch on OUR window, covering all destinations.
  if (!spec.send_to.empty()) {
    current_->windows[static_cast<std::size_t>(comm_.rank())]->start(
        spec.send_to);
    access_open_ = true;
  }
}

bool MpiRmaBackend::commit(int dst, BufferLease& lease, std::size_t bytes) {
  assert(access_open_ && current_ != nullptr);
  assert(bytes <= spec_->max_send_bytes[static_cast<std::size_t>(dst)]);
  // One MPI_Put into dst's preallocated buffer in our window.
  current_->windows[static_cast<std::size_t>(comm_.rank())]->put(
      lease.data, bytes, dst, 0);
  if (tracker_ != nullptr) tracker_->on_free(bytes);
  lease = BufferLease{};
  return true;  // preallocated target: RMA never pushes back
}

void MpiRmaBackend::flush() {
  if (access_open_) {
    current_->windows[static_cast<std::size_t>(comm_.rank())]->complete();
    access_open_ = false;
  }
}

bool MpiRmaBackend::try_recv(InMessage& out) {
  if (current_ == nullptr || spec_ == nullptr) return false;
  for (int j : spec_->recv_from) {
    const auto js = static_cast<std::size_t>(j);
    if (delivered_[js] ||
        !current_->exposed[js].load(std::memory_order_acquire))
      continue;
    mpi::Window& win = *current_->windows[js];
    if (!win.test_wait()) continue;
    // Source j's access epoch is complete: its message is in our buffer.
    current_->exposed[js].store(false, std::memory_order_release);
    delivered_[js] = true;
    ChunkHeader header;
    std::memcpy(&header, current_->recv_bufs[js].get(), sizeof(header));
    out.src = j;
    out.data = current_->recv_bufs[js].get();
    out.size = kChunkHeaderBytes + header.payload_bytes;
    WindowSet* set = current_;
    out.release = [set, j, js] {
      // Scatter done: re-expose so j can start its next epoch.
      set->windows[js]->post({j});
      set->exposed[js].store(true, std::memory_order_release);
    };
    return true;
  }
  return false;
}

void MpiRmaBackend::progress() {
  // The dedicated thread "continuously polls the network to ensure forward
  // progress for the MPI RMA operations".
  comm_.progress();
}

void MpiRmaBackend::end_phase() {
  flush();
  spec_ = nullptr;
  // current_ stays: release() lambdas may still re-expose windows.
}

DirectRegion MpiRmaBackend::register_direct_region(int /*src*/,
                                                   std::byte* base,
                                                   std::size_t bytes,
                                                   std::uint32_t generation) {
  // Dynamic-segment emulation: no collective window creation, no worst-case
  // preallocation accounting - the engine owns the buffer; we only attach
  // it to the endpoint so remote puts can resolve it.
  DirectRegion r;
  r.token =
      static_cast<std::uint64_t>(comm_.endpoint().register_memory(base, bytes));
  r.capacity = bytes;
  r.generation = generation;
  region_book_.add(r.token, base, bytes, generation);
  return r;
}

void MpiRmaBackend::release_direct_region(int /*src*/,
                                          const DirectRegion& region) {
  if (!region.valid()) return;
  region_book_.remove(region.token);
  comm_.endpoint().deregister_memory(static_cast<fabric::RKey>(region.token));
}

DirectPutStatus MpiRmaBackend::direct_put(int dst, const DirectRegion& region,
                                          const void* payload,
                                          std::size_t bytes,
                                          std::uint32_t phase_id,
                                          std::uint32_t pattern_key) {
  if (!region.valid() || bytes > region.capacity)
    return DirectPutStatus::Unavailable;
  const fabric::PostResult r = comm_.direct_try_put(
      dst, region.token, payload, bytes,
      pack_direct_imm(region.generation, phase_id),
      pack_direct_imm2(pattern_key, static_cast<std::uint32_t>(bytes)));
  switch (r) {
    case fabric::PostResult::Ok:
      return DirectPutStatus::Ok;
    case fabric::PostResult::NoRxBuffer:
    case fabric::PostResult::Throttled:
    case fabric::PostResult::CqFull:
    case fabric::PostResult::RetransmitFull:
      return DirectPutStatus::Retry;
    default:
      return DirectPutStatus::Unavailable;
  }
}

bool MpiRmaBackend::poll_direct(DirectSignal& out) {
  std::lock_guard<rt::Spinlock> guard(direct_lock_);
  if (direct_signals_.empty()) return false;
  out = direct_signals_.front();
  direct_signals_.pop_front();
  return true;
}

}  // namespace lcr::comm
