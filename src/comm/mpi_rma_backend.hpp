// MPI-RMA communication backend (paper Section III-C).
//
// One-sided baseline: for every (communication pattern x datatype) key it
// lazily creates a *window set* of p windows - "for p hosts, there are p
// shared windows" - where window j holds, on every host, a preallocated
// buffer sized for the worst case message from host j ("an upper bound can
// be computed assuming all nodes are active"). Such a set is created "for
// each datatype that is communicated (on first communication) for each
// pattern of communication (reduce and broadcast)".
//
// Synchronization is generalized active-target (PSCW), not fences: a host
// starts an access epoch on ITS window (windows[rank]), performs one MPI_Put
// per destination into that destination's preallocated buffer, and
// completes; each target waits per-source and re-exposes after scattering.
//
// The cost reproduced here is memory: windows are worst-case sized and never
// shrink, which is exactly what Fig. 5 measures ("MPI-RMA has to preallocate
// all buffers with a size that is the upper-bound of memory required").
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "comm/backend.hpp"
#include "lci/one_sided.hpp"
#include "mpilite/comm.hpp"
#include "mpilite/rma.hpp"
#include "runtime/spinlock.hpp"

namespace lcr::comm {

class MpiRmaBackend final : public Backend {
 public:
  MpiRmaBackend(fabric::Fabric& fabric, int rank,
                const BackendOptions& options);
  ~MpiRmaBackend() override;

  const char* name() const override { return "mpi-rma"; }
  /// Puts go straight from compute threads (THREAD_MULTIPLE), as in the
  /// paper; receives / epoch management stay on the polling thread.
  bool thread_safe_send() const override { return true; }
  bool thread_safe_recv() const override { return false; }
  /// 0 = one message per peer per phase (put into the worst-case slot).
  std::size_t chunk_bytes() const override { return 0; }

  void begin_phase(const PhaseSpec& spec) override;
  bool commit(int dst, BufferLease& lease, std::size_t bytes) override;
  void flush() override;
  bool try_recv(InMessage& out) override;
  void progress() override;
  void end_phase() override;

  mpi::Comm& comm() noexcept { return comm_; }

  /// Direct-write path (DESIGN.md §15): the mpilite emulation of dynamic
  /// windows. Regions register straight at the endpoint (no collective
  /// window creation), puts travel as WireKind::DirectPut outside any PSCW
  /// epoch, and landed notifications queue here until polled.
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

  /// Receiver-side registration bookkeeping (fuzz-suite introspection).
  lci::RegionBook& region_book() noexcept { return region_book_; }

  /// Total bytes preallocated in windows (diagnostics; also in the tracker).
  std::size_t window_bytes() const noexcept { return window_bytes_; }

 private:
  /// p windows for one (pattern x datatype) key; windows[j] receives from j.
  struct WindowSet {
    std::vector<std::unique_ptr<std::byte[]>> recv_bufs;  // indexed by source
    std::vector<std::size_t> recv_cap;
    std::vector<std::unique_ptr<mpi::Window>> windows;
    /// Exposure epoch open for source j? Atomic: written by scatter threads
    /// (message release re-exposes) and read by the communication thread.
    std::unique_ptr<std::atomic<bool>[]> exposed;
  };

  WindowSet& ensure_window_set(const PhaseSpec& spec);

  mpi::Comm comm_;
  rt::MemTracker* tracker_;
  std::size_t window_bytes_ = 0;

  std::map<std::uint32_t, WindowSet> window_sets_;  // by pattern key
  const PhaseSpec* spec_ = nullptr;                 // current phase
  WindowSet* current_ = nullptr;
  bool access_open_ = false;
  std::vector<bool> delivered_;  // source already surfaced this phase

  // Direct-write state: DirectPut notifications are pushed from the comm
  // progress path; compute/apply threads pop them via poll_direct.
  rt::Spinlock direct_lock_;
  std::deque<DirectSignal> direct_signals_;
  lci::RegionBook region_book_;
};

}  // namespace lcr::comm
