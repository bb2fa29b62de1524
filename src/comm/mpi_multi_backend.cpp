#include "comm/mpi_multi_backend.hpp"

#include <memory>
#include <mutex>

#include "mpilite/personality.hpp"

namespace lcr::comm {

namespace {
constexpr int kTag = 11;
}

MpiMultiBackend::MpiMultiBackend(fabric::Fabric& fabric, int rank,
                                 const BackendOptions& options,
                                 std::size_t callers)
    : comm_(fabric, rank, mpi::personality_by_name(options.mpi_personality),
            mpi::ThreadLevel::Multiple,
            mpi::CommConfig{fabric.config().default_rx_buffers, nullptr,
                            /*declared_concurrency=*/callers}),
      tracker_(options.tracker) {}

bool MpiMultiBackend::commit(int dst, BufferLease& lease, std::size_t bytes) {
  mpi::Request req = comm_.isend(lease.data, bytes, dst, kTag);
  if (!comm_.test(req)) {
    // Rendezvous in flight: pin the buffer until completion.
    std::lock_guard<rt::Spinlock> guard(out_lock_);
    outstanding_.push_back(
        Outstanding{std::move(lease.heap), bytes, std::move(req)});
  } else if (tracker_ != nullptr) {
    tracker_->on_free(bytes);
  }
  lease = BufferLease{};
  reap();
  return true;  // MPI accepts everything (no back pressure)
}

bool MpiMultiBackend::try_recv(InMessage& out) {
  // Probe+recv pairs are serialized by a lock: the race real codes avoid by
  // funnelling receives into one thread.
  std::unique_lock<rt::Spinlock> guard(recv_lock_, std::try_to_lock);
  if (!guard.owns_lock()) return false;
  mpi::Status st;
  if (!comm_.iprobe(mpi::kAnySource, kTag, &st)) return false;
  // shared_ptr staging: the buffer is freed on every path, including when
  // the InMessage is destroyed without release() being called.
  auto buf = std::make_shared<std::vector<std::byte>>(st.size);
  comm_.recv(buf->data(), st.size, st.source, st.tag);
  guard.unlock();
  if (tracker_ != nullptr) tracker_->on_alloc(st.size);
  out.src = st.source;
  out.data = buf->data();
  out.size = buf->size();
  rt::MemTracker* tracker = tracker_;
  out.release = [buf, tracker] {
    if (tracker != nullptr) tracker->on_free(buf->size());
  };
  return true;
}

void MpiMultiBackend::progress() {
  comm_.progress();
  reap();
}

void MpiMultiBackend::reap() {
  std::unique_lock<rt::Spinlock> guard(out_lock_, std::try_to_lock);
  if (!guard.owns_lock()) return;
  while (!outstanding_.empty() &&
         outstanding_.front().req->complete.load(std::memory_order_acquire)) {
    if (tracker_ != nullptr)
      tracker_->on_free(outstanding_.front().bytes);
    outstanding_.pop_front();
  }
}

}  // namespace lcr::comm
