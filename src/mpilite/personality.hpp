// MPI implementation "personalities".
//
// Section IV-B2 of the paper compares IntelMPI, MVAPICH2 and OpenMPI and
// finds "no clear winner between different MPI implementations" while LCI
// beats all of them. We cannot ship three vendor MPIs, so mpilite models the
// per-operation software costs that differentiate them as short calibrated
// busy-spins layered on top of the *structural* costs mpilite already pays
// for real (sequential matching queues, unexpected-message copies, global
// locking). Each personality makes a different trade-off - cheap matching
// but expensive probes, cheap probes but a heavier THREAD_MULTIPLE lock, and
// so on - reproducing the "no clear winner" observation. The substitution is
// documented in DESIGN.md.
#pragma once

#include <cstdint>
#include <string>

namespace lcr::mpi {

struct Personality {
  std::string name = "default";

  /// Base cost charged on entry of every nonblocking call (ns).
  std::uint64_t call_overhead_ns = 30;

  /// Cost per matching-queue element inspected during matching (ns).
  std::uint64_t match_cost_ns = 20;

  /// Extra base cost of an iprobe call on top of the matching scan (ns).
  std::uint64_t probe_cost_ns = 80;

  /// Cost of acquiring the global lock under THREAD_MULTIPLE (ns).
  std::uint64_t lock_cost_ns = 60;

  /// Extra per-call cost under THREAD_MULTIPLE *per concurrent caller*:
  /// cacheline bouncing and serialized hand-offs that deployed MPIs exhibit
  /// when several threads issue calls at once (the "substantial performance
  /// loss" of paper refs [16], [18], [22]). Charged dynamically as
  /// surcharge x (number of other threads inside or waiting on the library),
  /// so a lone polling thread (the RMA layer) pays nothing while many
  /// compute threads hammering the lock (Gemini) pay the documented
  /// contention. Capped at 4 concurrent others.
  std::uint64_t multiple_surcharge_ns = 400;

  /// Cost per RMA put (ns) and per epoch-synchronization call (ns).
  std::uint64_t rma_put_cost_ns = 60;
  std::uint64_t rma_sync_cost_ns = 300;

  /// Eager/rendezvous switchover (bytes).
  std::size_t eager_limit = 8 * 1024;

  /// Internal buffering cap for unexpected messages; exceeding it raises
  /// FatalMpiError, reproducing the crash/hang the paper hit with the naive
  /// layer. 0 = unlimited.
  std::size_t max_unexpected_bytes = 0;
};

/// Default personality used when no vendor is being modelled.
Personality default_personality();

/// IntelMPI-like: fast matching and good RMA, pricier probes.
Personality intelmpi_like();

/// MVAPICH2-like: cheap probes, slower matching scan, heavier RMA sync.
Personality mvapich_like();

/// OpenMPI-like: balanced but higher per-call overhead and lock cost.
Personality openmpi_like();

/// Looks up a personality by name: "default", "intelmpi", "mvapich" or
/// "openmpi". Throws std::invalid_argument for any other name, so a typo
/// fails loudly instead of running the default under the wrong label.
Personality personality_by_name(const std::string& name);

}  // namespace lcr::mpi
