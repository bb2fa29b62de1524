// The simulated network fabric connecting all host endpoints.
//
// Semantics (modelled on reliable-connection verbs / psm2):
//   * post_send: eager transfer of <= MTU bytes into a receive buffer the
//     target pre-posted. Completes locally at return (buffered-at-target).
//     Fails softly (PostResult) on missing rx buffers, throttling, or a full
//     target CQ - the caller must retry; nothing is lost.
//   * post_put: RDMA write of arbitrary size directly into a registered
//     region on the target; optionally delivers a PutImm completion (like
//     IBV_WR_RDMA_WRITE_WITH_IMM). Data is visible at the target no later
//     than the notification.
//   * per-link ordering: completions from one sender appear at the target CQ
//     in posting order (RC ordering), because posts synchronize on the
//     target's CQ lock in program order.
//   * optional unreliability: when FabricConfig::fault is enabled the fabric
//     behaves like a UD/datagram-class transport - operations may be
//     dropped, duplicated, delayed, reordered, or bit-flipped, decided
//     deterministically from (seed, link, operation identity: seq and
//     attempt for reliable data, the per-link op index otherwise). Layers above
//     must then run the reliability protocol in fabric/reliable.hpp.
//
// The fabric itself is runtime-agnostic: LCI, mpilite two-sided and mpilite
// RMA all drive exactly these three verbs, so measured differences between
// them come from their own software stacks, not from the transport.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "fabric/endpoint.hpp"
#include "telemetry/metrics.hpp"

namespace lcr::fabric {

class Fabric {
 public:
  /// Creates a fabric with `num_ranks` endpoints sharing one configuration.
  Fabric(std::size_t num_ranks, FabricConfig config);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  std::size_t num_ranks() const noexcept { return endpoints_.size(); }
  const FabricConfig& config() const noexcept { return config_; }

  Endpoint& endpoint(Rank r) { return *endpoints_.at(r); }

  /// The metrics registry for everything riding on this fabric: endpoint
  /// stats register as probes at construction, and the layers above
  /// (reliability channel, LCI queue, mpilite comm, engines) add their own
  /// probes / histograms / profiler counters. The bench runner aggregates
  /// per-run totals by iterating a snapshot of this registry.
  telemetry::Registry& telemetry() noexcept { return telemetry_; }

  /// Eager send of `meta.size` bytes at `payload` to rank `dst`. `meta.src`
  /// is filled in from `src`. Payload may be nullptr iff meta.size == 0
  /// (header-only control packets).
  PostResult post_send(Rank src, Rank dst, const void* payload, MsgMeta meta);

  /// RDMA write: copy `size` bytes into (rkey, offset) at `dst`. If `notify`
  /// is true, a PutImm completion with `meta` is delivered to dst after the
  /// data is in place.
  PostResult post_put(Rank src, Rank dst, RKey rkey, std::size_t offset,
                      const void* payload, std::size_t size, bool notify,
                      MsgMeta meta);

  // --- Fail-stop host-kill layer (FaultProfile::kill_*). ---

  bool is_alive(Rank r) const noexcept {
    return r < endpoints_.size() &&
           alive_[r].load(std::memory_order_acquire);
  }

  /// Kill `victim` now: its endpoint is detached (rx buffers, CQ and memory
  /// registrations dropped), posts from it are black-holed and posts to it
  /// return Down. Also the hook the scheduled kill triggers call into.
  void kill_now(Rank victim);

  /// Re-admit a previously killed host under a new fabric epoch. Completions
  /// stamped with the old epoch are fenced at every endpoint's poll_cq.
  void revive(Rank host);

  /// Current fabric epoch; bumped by revive().
  std::uint32_t epoch() const noexcept {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Drivers report BSP round boundaries so a round-triggered kill fires
  /// deterministically when the victim reaches round `kill_at_round`.
  void note_round(Rank host, std::int64_t round);

  /// Accepted data operations posted by `host` (kill-schedule op counter;
  /// 0 when no kill schedule is configured).
  std::uint64_t data_ops(Rank host) const noexcept {
    return host_ops_ ? host_ops_[host].load(std::memory_order_relaxed) : 0;
  }

  /// Op count the scheduled kill fired at (diagnostics / determinism tests).
  std::uint64_t killed_at_op() const noexcept {
    return killed_at_op_.load(std::memory_order_relaxed);
  }

  /// Observer invoked (from the thread that triggered the kill) when a host
  /// dies. The membership layer registers here for ground-truth kills.
  void set_kill_observer(std::function<void(Rank)> fn) {
    kill_observer_ = std::move(fn);
  }

  /// Observer invoked when a reliability channel gives up on a peer after
  /// bounded retransmission or observes Down ("suspected dead").
  void set_suspect_observer(std::function<void(Rank, Rank)> fn) {
    suspect_observer_ = std::move(fn);
  }

  /// Called by ReliableChannel: `reporter` suspects `peer` is dead.
  void report_suspected_dead(Rank reporter, Rank peer) {
    if (suspect_observer_) suspect_observer_(reporter, peer);
  }

 private:
  std::uint64_t delivery_time_ns(std::size_t bytes) const;

  /// Which faults fire for one wire operation (see FaultProfile).
  struct FaultRoll {
    bool drop = false;
    bool dup = false;
    bool corrupt = false;
    bool reorder = false;
    std::uint64_t delay_ns = 0;
    std::size_t corrupt_byte = 0;  // payload byte to bit-flip
  };

  /// Deterministic fault decision for the `index`-th operation on link
  /// (src, dst). A reliable data operation (kRelSeq, not kRelCtrl) rolls on
  /// its own identity, a pure hash of (seed, src, dst, seq, attempt); any
  /// other operation rolls on (seed, src, dst, index). The brownout window
  /// always counts `index`. Returns an all-false roll when fault injection
  /// is disabled.
  FaultRoll roll_faults(Rank src, Rank dst, std::uint64_t index,
                        const MsgMeta& meta, std::size_t payload_size) const;

  /// Post-increment the per-link operation counter.
  std::uint64_t next_link_op(Rank src, Rank dst);

  FabricConfig config_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  /// Per-(src,dst) operation counters driving deterministic fault rolls;
  /// row-major [src * num_ranks + dst]. Only allocated when faults are on.
  std::unique_ptr<std::atomic<std::uint64_t>[]> link_ops_;

  /// Liveness flag per host (fail-stop kill layer).
  std::unique_ptr<std::atomic<bool>[]> alive_;
  /// Accepted first transmissions of data operations per source host
  /// (kill-at-op trigger); only
  /// allocated when a kill schedule is configured.
  std::unique_ptr<std::atomic<std::uint64_t>[]> host_ops_;
  std::atomic<bool> kill_fired_{false};   // scheduled kill fires exactly once
  std::atomic<std::uint32_t> epoch_{0};
  std::atomic<std::uint64_t> killed_at_op_{0};
  std::function<void(Rank)> kill_observer_;
  std::function<void(Rank, Rank)> suspect_observer_;

  telemetry::Registry telemetry_;
  telemetry::Histogram* msg_bytes_hist_ = nullptr;  // wire message sizes
  std::vector<telemetry::Registration> stat_regs_;  // endpoint stat probes
};

}  // namespace lcr::fabric
