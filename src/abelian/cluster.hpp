// Simulated cluster harness: N hosts as threads over one fabric.
//
// Each "host" of the paper's cluster is an OS thread group (one host-main
// thread that may spawn compute threads and a communication thread). Hosts
// share nothing except (a) the fabric - the network - and (b) a tiny
// out-of-band control plane (barrier + allreduce) standing in for the job
// launcher / PMI layer that real clusters also have. The OOB plane is used
// only for BSP round control (termination detection), identically for every
// backend, so it never contributes to the measured differences between
// communication layers (see DESIGN.md).
//
// The cluster also owns the failure-handling pieces of DESIGN.md §13: the
// membership layer (fed by the fabric's kill observer and the reliability
// watchdog), the cluster-wide checkpoint store, and the recovery rendezvous
// that re-admits a killed host under a new fabric epoch. All OOB collectives
// are abortable: when a failure is pending they throw instead of deadlocking
// on the dead participant.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "comm/direct.hpp"
#include "comm/membership.hpp"
#include "fabric/fabric.hpp"
#include "runtime/barrier.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/collective.hpp"
#include "runtime/spinlock.hpp"
#include "telemetry/health.hpp"

namespace lcr::abelian {

/// How the cluster schedules its simulated hosts and runs the OOB plane
/// (DESIGN.md §16). Defaults come from the environment so every existing
/// test/bench entry point picks them up without plumbing:
///   LCR_HOST_SCHED = os (default) | ult
///   LCR_OOB_COLL   = tree (default) | flat
struct ClusterOptions {
  enum class HostSched {
    kOsThreads,  ///< one OS thread per host (the original path)
    kUlt,        ///< hosts are cooperative fibers over a small worker pool
  };
  enum class OobColl {
    kFlat,  ///< centralized sense barrier + 3-barrier scratch allreduce
    kTree,  ///< k-ary combining tree, O(log N) waves per op
  };

  HostSched host_sched = HostSched::kOsThreads;
  OobColl oob_coll = OobColl::kTree;
  /// ULT worker (OS thread) count; 0 = min(hardware threads, num_hosts).
  std::size_t ult_workers = 0;

  /// Reads LCR_HOST_SCHED / LCR_OOB_COLL; unset or unknown values keep the
  /// defaults above.
  static ClusterOptions from_env();
};

class Cluster {
 public:
  Cluster(int num_hosts, fabric::FabricConfig config,
          ClusterOptions options = ClusterOptions::from_env());

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  int num_hosts() const noexcept { return num_hosts_; }
  fabric::Fabric& fabric() noexcept { return fabric_; }
  comm::Membership& membership() noexcept { return membership_; }
  rt::CheckpointStore& checkpoints() noexcept { return checkpoints_; }

  /// Cluster health monitor (DESIGN.md §14): engines report one
  /// (duration, bytes) sample per host per sync phase; the bench runner
  /// pulls diagnose()/write_json() after the run.
  telemetry::HealthMonitor& health() noexcept { return health_; }

  /// Direct-write region directory (DESIGN.md §15): the stand-in for the
  /// PMI rkey exchange through which receivers publish registered regions
  /// and senders resolve them. Also the cluster-wide generation source -
  /// generations are unique across hosts AND recovery epochs, so a put
  /// built against a pre-failure registration can never validate against
  /// a post-revive region that reuses the same buffer.
  comm::DirectDirectory& direct_directory() noexcept { return directory_; }

  const ClusterOptions& options() const noexcept { return options_; }

  /// Runs fn(host_id) once per host and joins them all. Under
  /// HostSched::kOsThreads each host is an OS thread; under kUlt the hosts
  /// are fibers multiplexed over min(hardware threads, N) workers, and the
  /// scheduler's sched.* statistics are flushed into the fabric telemetry
  /// registry when the run completes. Any exception thrown by a host is
  /// rethrown (first one wins).
  void run(const std::function<void(int)>& fn);

  // --- Out-of-band control plane (host-main threads only) ---
  // All collectives abort with PeerFailedError when a failure is pending.

  void oob_barrier() { oob_wait(); }

  /// Sum-allreduce over all hosts. Collective: every host-main must call.
  std::uint64_t oob_allreduce_sum(std::uint64_t value);
  double oob_allreduce_sum(double value);

  /// Max-allreduce over all hosts.
  double oob_allreduce_max(double value);

  /// Min-allreduce over all hosts (u64).
  std::uint64_t oob_allreduce_min(std::uint64_t value);

  // --- Failure handling (DESIGN.md §13) ---

  /// Driver hook at each BSP round boundary: fires scheduled round kills
  /// deterministically and aborts the caller when this host is dead
  /// (HostKilledError) or a peer failure is pending (PeerFailedError).
  /// `stage` (the round's checkpoint save, if any) runs between the two
  /// checks: a live host's boundary state is complete whether or not a peer
  /// has failed since, so a survivor that reaches the boundary after the
  /// kill still stages it, and the rollback round does not depend on how
  /// far it lagged.
  void round_tick(int host, std::int64_t round,
                  const std::function<void()>& stage);

  /// Cluster-wide recovery rendezvous: every host thread calls this after
  /// unwinding its engine. The leader (host 0) revives dead hosts under a
  /// new fabric epoch, clears stale suspicions, resets the torn OOB plane
  /// and logs the deterministic Rollback/Readmit trace. Returns the
  /// cluster-wide rollback round (-1 = restart from scratch).
  std::int64_t recover(int self);

 private:
  /// Abortable barrier arrival; throws PeerFailedError on pending failure.
  void oob_wait();
  void run_ult(const std::function<void(int)>& fn);
  /// The caller's simulated-host id inside run() (fiber host tag under ULT,
  /// a thread_local set by the OS-thread wrapper otherwise); -1 outside.
  int self_host() const noexcept;
  /// True when a failure is pending (abort predicate for tree waves).
  bool abort_pending() const { return membership_.failure_pending(); }
  [[noreturn]] void throw_failure() const;

  int num_hosts_;
  ClusterOptions options_;
  fabric::Fabric fabric_;
  rt::SenseBarrier barrier_;
  rt::TreeBarrier tree_barrier_;
  rt::TreeAllreduce<std::uint64_t> tree_u64_;
  rt::TreeAllreduce<double> tree_double_;
  comm::Membership membership_;
  rt::CheckpointStore checkpoints_;
  telemetry::HealthMonitor health_;
  comm::DirectDirectory directory_;
  telemetry::Registration ckpt_reg_;
  telemetry::Registration member_reg_;
  std::atomic<std::int64_t> rollback_round_{-1};

  // Allreduce scratch (host 0 resets between uses; barriers sequence it).
  std::atomic<std::uint64_t> acc_u64_{0};
  rt::Spinlock acc_lock_;
  double acc_double_ = 0.0;
  std::uint64_t acc_u64_min_ = ~std::uint64_t{0};
};

}  // namespace lcr::abelian
