// MPI-Probe communication backend (paper Section III-B).
//
// The baseline two-sided layer: MPI_THREAD_FUNNELED, all MPI calls from the
// dedicated communication thread, plus the *buffered network layer* the
// authors had to add because MPI provides no back pressure:
//
//   "For sending messages, the system buffers small items (those less than
//    the eager-send limit) until either the oldest buffered message times
//    out or the buffer size exceeds the eager send limit."
//
// Receives use MPI_Iprobe with wildcards to learn the size/source of the
// next incoming aggregate, then a matching MPI_Irecv; MPI_Test drives
// progress and reclaims buffers. All calls are nonblocking.
#pragma once

#include <deque>
#include <list>
#include <memory>
#include <vector>

#include "comm/backend.hpp"
#include "lci/one_sided.hpp"
#include "mpilite/comm.hpp"
#include "runtime/spinlock.hpp"

namespace lcr::comm {

class MpiProbeBackend final : public Backend {
 public:
  MpiProbeBackend(fabric::Fabric& fabric, int rank,
                  const BackendOptions& options);
  ~MpiProbeBackend() override;

  const char* name() const override { return "mpi-probe"; }
  bool thread_safe_send() const override { return false; }  // FUNNELED
  bool thread_safe_recv() const override { return false; }
  std::size_t chunk_bytes() const override { return comm_.eager_limit(); }

  void begin_phase(const PhaseSpec& spec) override;
  bool commit(int dst, BufferLease& lease, std::size_t bytes) override;
  void flush() override;
  bool try_recv(InMessage& out) override;
  void progress() override;
  void end_phase() override;

  mpi::Comm& comm() noexcept { return comm_; }

  /// Direct-write path (DESIGN.md §15), software-emulated: this layer has
  /// no one-sided primitive, so a "put" travels as a framed two-sided
  /// message on a dedicated tag and the receive pump performs the region
  /// write itself - after walking the RegionBook validation ladder (token /
  /// generation / bounds), exactly the checks a NIC does in hardware. The
  /// framing keeps the engine's direct/two-sided selection logic and the
  /// completion accounting identical across all three backends.
  /// direct_put follows thread_safe_send() (comm thread only, FUNNELED);
  /// register/release/poll_direct are thread-safe.
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

  lci::RegionBook& region_book() noexcept { return region_book_; }

 private:
  /// Per-destination aggregation buffer of the buffered network layer.
  struct AggBuffer {
    std::vector<std::byte> bytes;   // [u32 record_size][record]...
    std::uint64_t oldest_ns = 0;    // enqueue time of the oldest record
  };

  struct OutstandingSend {
    std::vector<std::byte> bytes;
    mpi::Request req;
  };

  /// A completed incoming aggregate, shared by the record views cut from it.
  struct RecvBuf {
    std::vector<std::byte> bytes;
    int src = -1;
  };

  struct PendingRecv {
    std::shared_ptr<RecvBuf> buf;
    mpi::Request req;
  };

  void append_record(AggBuffer& agg, const std::byte* record,
                     std::size_t bytes);
  void flush_agg(int dst);
  void reap_outstanding();
  void pump_receives();
  void split_records(std::shared_ptr<RecvBuf> buf);
  void deliver_direct(const std::shared_ptr<RecvBuf>& buf);

  mpi::Comm comm_;
  rt::MemTracker* tracker_;
  std::uint64_t timeout_ns_;

  std::vector<AggBuffer> agg_;             // indexed by destination rank
  std::list<OutstandingSend> outstanding_; // isends awaiting completion
  std::list<PendingRecv> pending_recvs_;   // irecvs awaiting completion
  std::list<PendingRecv> pending_direct_;  // direct-frame irecvs in flight
  std::deque<InMessage> ready_;            // parsed records ready for the engine

  // Direct-write state. Tokens are handed out monotonically (never reused)
  // from next_direct_token_, mirroring fabric rkey semantics.
  std::uint64_t next_direct_token_ = 1;
  rt::Spinlock direct_lock_;
  std::deque<DirectSignal> direct_signals_;
  lci::RegionBook region_book_;
};

}  // namespace lcr::comm
