// Fabric configuration: the "NIC personality" of the simulated network.
//
// The paper evaluates on two transports: Intel Omni-Path (psm2) on Stampede2
// and Mellanox Infiniband FDR (ibverbs RC) on Stampede1. We cannot drive real
// NICs here, so the fabric models the properties that matter to the runtimes
// built on top of it:
//   * an MTU / max eager payload,
//   * a bounded pool of pre-posted receive buffers per endpoint (a verbs RQ):
//     senders get a non-fatal Retry when the receiver has no buffers, which is
//     the back-pressure signal MPI lacks and LCI exploits (paper Section III),
//   * an injection-rate token bucket (packet injection limits "on many
//     networks", Section III-B),
//   * a wire latency + bandwidth model applied to delivery visibility.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

namespace lcr::fabric {

/// Deterministic fault model for an unreliable fabric (UD/datagram-class
/// transports where the runtime owns reliability). Every fault decision is a
/// pure hash of (seed, src, dst, operation): a reliable data operation is
/// named by its (seq, attempt), any other by its per-link operation index.
/// Replaying the same traffic with the same seed reproduces the same fault
/// sequence - independent of wall-clock timing and of how control packets
/// interleave with the data.
struct FaultProfile {
  std::uint64_t seed = 0;

  /// Probability that an operation (eager packet or RDMA put) vanishes:
  /// the sender sees Ok, the receiver sees nothing.
  double drop_rate = 0.0;
  /// Probability that an eager packet / put notification is delivered twice.
  double dup_rate = 0.0;
  /// Probability that one payload byte is bit-flipped in flight.
  double corrupt_rate = 0.0;
  /// Probability that a delivery is swapped with the completion queued just
  /// before it (breaks per-link FIFO).
  double reorder_rate = 0.0;
  /// Probability that a delivery is held back by `delay`.
  double delay_rate = 0.0;
  std::chrono::nanoseconds delay{0};

  /// Optional link brownout: every operation on (brownout_src, brownout_dst)
  /// with per-link index in [brownout_start_op, brownout_start_op +
  /// brownout_ops) is dropped. brownout_ops == 0 disables it.
  std::uint32_t brownout_src = 0;
  std::uint32_t brownout_dst = 0;
  std::uint64_t brownout_start_op = 0;
  std::uint64_t brownout_ops = 0;

  /// Fail-stop host kill schedule. Host `kill_host` (-1 = disabled) dies
  /// either at its `kill_at_op`-th accepted data operation (1-based, first
  /// transmissions only - retransmits never count; 0 disables the op
  /// trigger) or when its driver reports reaching round
  /// `kill_at_round` (-1 disables), whichever fires first. Exactly one kill
  /// fires per run; the victim's endpoint is torn down so peers observe
  /// PostResult::Down instead of silence, and a later revive() bumps the
  /// fabric epoch. Op triggers are deterministic per seed on a loss-free
  /// fabric; round triggers are deterministic always.
  std::int32_t kill_host = -1;
  std::uint64_t kill_at_op = 0;
  std::int64_t kill_at_round = -1;

  /// Straggler injection: host `slow_host` (-1 = disabled) waits for
  /// `slow_round_ns` at the top of every round it drives, yielding its core
  /// (or its ULT worker) to the other hosts meanwhile. Models a host with
  /// degraded compute (thermal throttling, a noisy neighbour); the health
  /// monitor's straggler classifier exists to catch exactly this.
  std::int32_t slow_host = -1;
  std::uint64_t slow_round_ns = 0;

  bool enabled() const noexcept {
    return drop_rate > 0.0 || dup_rate > 0.0 || corrupt_rate > 0.0 ||
           reorder_rate > 0.0 || delay_rate > 0.0 || brownout_ops > 0;
  }

  bool kill_enabled() const noexcept {
    return kill_host >= 0 && (kill_at_op > 0 || kill_at_round >= 0);
  }
};

/// One-line summary for bench/test log headers, e.g.
/// "faults{seed=42 drop=5% dup=1% corrupt=0.5%}" or "faults{none}".
std::string to_string(const FaultProfile& fp);

struct FabricConfig {
  /// Human-readable name, e.g. "omnipath-knl".
  std::string name = "default";

  /// Maximum payload of a single eager packet (post_send). RDMA writes
  /// (post_put) are not limited by the MTU.
  std::size_t mtu = 16 * 1024;

  /// Number of receive buffers pre-posted per endpoint by default. Layers may
  /// post their own buffers instead (LCI posts its packet pool).
  std::size_t default_rx_buffers = 256;

  /// Completion-queue capacity per endpoint.
  std::size_t cq_capacity = 4096;

  /// Injection rate limit in packets per second (token bucket); 0 = unlimited.
  double injection_rate_pps = 0.0;

  /// Token-bucket burst size (max tokens).
  std::size_t injection_burst = 256;

  /// One-way wire latency added to delivery visibility.
  std::chrono::nanoseconds wire_latency{0};

  /// Link bandwidth in bytes per second; 0 = infinite. Adds size/bw to the
  /// delivery time of each packet / put notification.
  double bandwidth_Bps = 0.0;

  /// Per-operation software cost of the NIC driver doorbell, modelled as a
  /// short busy spin (ns). Identical for every runtime on this fabric.
  std::uint64_t doorbell_cost_ns = 0;

  /// Fault injection (drop / duplicate / corrupt / reorder / delay / link
  /// brownout). Disabled by default: the fabric behaves like verbs RC.
  FaultProfile fault;

  /// Run the reliability protocol even on a fault-free fabric (overhead
  /// measurement; see bench_reliability_overhead).
  bool force_reliable = false;

  /// True when the communication layers must run the end-to-end reliability
  /// protocol (sequence numbers, CRC, retransmit) on this fabric. A kill
  /// schedule forces it too: PostResult::Down is absorbed by the channel,
  /// which converts it into a suspected-dead membership report.
  bool reliable() const noexcept {
    return force_reliable || fault.enabled() || fault.kill_enabled();
  }
};

/// Omni-Path-on-KNL-like personality (Stampede2 analogue, Table III).
FabricConfig omnipath_knl_config();

/// Infiniband-FDR-on-SandyBridge-like personality (Stampede1 analogue).
FabricConfig infiniband_snb_config();

/// Zero-latency, unlimited fabric for unit tests.
FabricConfig test_config();

}  // namespace lcr::fabric
