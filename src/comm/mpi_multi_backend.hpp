// MPI under MPI_THREAD_MULTIPLE, the way Gemini uses it (paper Section
// IV-B1): "Gemini ... relies on communication from many threads with
// MPI_THREAD_MULTIPLE ... MPI_PROBE is used frequently inside a receiving
// thread to receive incoming messages".
//
// Every compute thread isends its own chunks (paying the global library
// lock) and probes/receives with wildcards (paying matching-queue
// traversal). Sends are never aggregated and never refused, so there is no
// chunking preference (chunk_bytes() == 0) and no phase work.
//
// This is deliberately not a BackendKind: the factory's MPI-Probe backend is
// the FUNNELED layer with its buffered aggregation, which only the Abelian
// engine's dedicated comm thread drives. The Gemini engine constructs this
// class directly.
#pragma once

#include <deque>
#include <vector>

#include "comm/backend.hpp"
#include "mpilite/comm.hpp"
#include "runtime/spinlock.hpp"

namespace lcr::comm {

class MpiMultiBackend final : public Backend {
 public:
  /// `callers` is the number of threads that will call into the backend at
  /// once (compute threads plus the progress thread); it sizes mpilite's
  /// THREAD_MULTIPLE contention model. Uses `options.tracker` and
  /// `options.mpi_personality`.
  MpiMultiBackend(fabric::Fabric& fabric, int rank,
                  const BackendOptions& options, std::size_t callers);

  const char* name() const override { return "mpi-probe"; }
  bool thread_safe_send() const override { return true; }
  bool thread_safe_recv() const override { return true; }
  std::size_t chunk_bytes() const override { return 0; }

  void begin_phase(const PhaseSpec&) override {}
  bool commit(int dst, BufferLease& lease, std::size_t bytes) override;
  void flush() override {}
  bool try_recv(InMessage& out) override;
  void progress() override;
  void end_phase() override {}

 private:
  struct Outstanding {
    std::vector<std::byte> payload;  // the lease's heap buffer
    std::size_t bytes = 0;           // wire bytes (tracker accounting)
    mpi::Request req;
  };

  void reap();

  mpi::Comm comm_;
  rt::MemTracker* tracker_;
  rt::Spinlock recv_lock_;
  rt::Spinlock out_lock_;
  std::deque<Outstanding> outstanding_;
};

}  // namespace lcr::comm
