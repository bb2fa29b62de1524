#include "fabric/fabric.hpp"

#include <cstdio>
#include <cstring>

#include "runtime/cpu_relax.hpp"
#include "runtime/rng.hpp"
#include "runtime/timer.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/trace.hpp"

namespace lcr::fabric {

Fabric::Fabric(std::size_t num_ranks, FabricConfig config)
    : config_(std::move(config)) {
  endpoints_.reserve(num_ranks);
  for (std::size_t r = 0; r < num_ranks; ++r)
    endpoints_.emplace_back(
        new Endpoint(static_cast<Rank>(r), &config_));
  if (config_.fault.enabled())
    link_ops_.reset(
        new std::atomic<std::uint64_t>[num_ranks * num_ranks]());
  alive_.reset(new std::atomic<bool>[num_ranks]);
  for (std::size_t r = 0; r < num_ranks; ++r)
    alive_[r].store(true, std::memory_order_relaxed);
  if (config_.fault.kill_enabled())
    host_ops_.reset(new std::atomic<std::uint64_t>[num_ranks]());
  for (auto& ep : endpoints_) ep->fabric_epoch_ = &epoch_;
  msg_bytes_hist_ = &telemetry_.histogram("fabric.msg_bytes");
  stat_regs_.reserve(num_ranks);
  for (auto& ep : endpoints_)
    stat_regs_.push_back(
        telemetry_.register_probes(endpoint_stat_probes(ep->stats())));
}

void Fabric::kill_now(Rank victim) {
  if (victim >= endpoints_.size()) return;
  if (!alive_[victim].exchange(false, std::memory_order_acq_rel))
    return;  // already dead
  killed_at_op_.store(data_ops(victim), std::memory_order_relaxed);
  // Tear down the victim's endpoint: rx buffers, pending completions and
  // memory registrations vanish with the host, so in-flight deliveries are
  // lost exactly like a machine losing power.
  endpoints_[victim]->detach();
  endpoints_[victim]->stats().host_kills.fetch_add(1,
                                                   std::memory_order_relaxed);
  char buf[96];
  std::snprintf(buf, sizeof(buf), "{\"host\":%u,\"epoch\":%u,\"op\":%llu}",
                victim, epoch_.load(std::memory_order_relaxed),
                static_cast<unsigned long long>(killed_at_op()));
  if (telemetry::enabled())
    telemetry::instant("fault", "host_kill", victim, buf);
  telemetry::flight_record(victim, "fault.host_kill", buf);
  if (kill_observer_) kill_observer_(victim);
}

void Fabric::revive(Rank host) {
  if (host >= endpoints_.size()) return;
  if (alive_[host].exchange(true, std::memory_order_acq_rel))
    return;  // was not dead
  // New incarnation: everything stamped with the old epoch is fenced at
  // poll_cq, so no packet from before the kill can reach the new layers.
  const std::uint32_t e =
      epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "{\"host\":%u,\"epoch\":%u}", host, e);
  if (telemetry::enabled())
    telemetry::instant("fault", "host_revive", host, buf);
  telemetry::flight_record(host, "fault.host_revive", buf);
}

void Fabric::note_round(Rank host, std::int64_t round) {
  const FaultProfile& fp = config_.fault;
  if (!fp.kill_enabled() || fp.kill_at_round < 0) return;
  if (static_cast<std::int32_t>(host) != fp.kill_host) return;
  if (round < fp.kill_at_round) return;
  if (kill_fired_.exchange(true, std::memory_order_acq_rel)) return;
  kill_now(host);
}

std::uint64_t Fabric::next_link_op(Rank src, Rank dst) {
  return link_ops_[src * endpoints_.size() + dst].fetch_add(
      1, std::memory_order_relaxed);
}

Fabric::FaultRoll Fabric::roll_faults(Rank src, Rank dst, std::uint64_t index,
                                      const MsgMeta& meta,
                                      std::size_t payload_size) const {
  FaultRoll roll;
  const FaultProfile& fp = config_.fault;

  if (fp.brownout_ops > 0 && src == fp.brownout_src &&
      dst == fp.brownout_dst && index >= fp.brownout_start_op &&
      index < fp.brownout_start_op + fp.brownout_ops) {
    roll.drop = true;
    return roll;
  }

  // One splitmix64 stream per (seed, link, operation): decisions are a pure
  // function of the operation's identity, never of wall-clock timing. A
  // reliable data operation is identified by (seq, attempt), not by its
  // link slot: which slot a message lands in depends on how other threads'
  // acks, probes and retransmits interleave with it, so a slot-keyed roll
  // would drop a different message on every run of the same seed. The tag
  // bit keeps the two key spaces apart.
  const bool keyed =
      (meta.rel & kRelSeq) != 0 && (meta.rel & kRelCtrl) == 0;
  const std::uint64_t op =
      keyed ? (std::uint64_t{1} << 63) |
                  (static_cast<std::uint64_t>(meta.attempt) << 32) | meta.seq
            : index;
  std::uint64_t state = fp.seed;
  state ^= rt::hash64((static_cast<std::uint64_t>(src) << 32) | dst);
  state ^= rt::hash64(op * 0x9e3779b97f4a7c15ULL);
  auto draw = [&state]() {
    return static_cast<double>(rt::splitmix64(state) >> 11) * 0x1.0p-53;
  };

  if (fp.drop_rate > 0.0 && draw() < fp.drop_rate) {
    roll.drop = true;
    return roll;  // a dropped packet has no other observable faults
  }
  if (fp.dup_rate > 0.0 && draw() < fp.dup_rate) roll.dup = true;
  if (fp.corrupt_rate > 0.0 && draw() < fp.corrupt_rate &&
      payload_size > 0) {
    roll.corrupt = true;
    roll.corrupt_byte =
        static_cast<std::size_t>(rt::splitmix64(state) % payload_size);
  }
  if (fp.reorder_rate > 0.0 && draw() < fp.reorder_rate) roll.reorder = true;
  if (fp.delay_rate > 0.0 && draw() < fp.delay_rate)
    roll.delay_ns = static_cast<std::uint64_t>(fp.delay.count());
  return roll;
}

std::uint64_t Fabric::delivery_time_ns(std::size_t bytes) const {
  std::uint64_t t = rt::now_ns();
  t += static_cast<std::uint64_t>(config_.wire_latency.count());
  if (config_.bandwidth_Bps > 0.0)
    t += static_cast<std::uint64_t>(
        static_cast<double>(bytes) / config_.bandwidth_Bps * 1e9);
  return t;
}

PostResult Fabric::post_send(Rank src, Rank dst, const void* payload,
                             MsgMeta meta) {
  if (src >= endpoints_.size() || dst >= endpoints_.size())
    return PostResult::Invalid;
  if (meta.size > config_.mtu) return PostResult::TooLarge;

  // Fail-stop semantics: posts from a dead host vanish into its detached
  // NIC; posts to a dead host report delivery failure instead of silence.
  if (!alive_[src].load(std::memory_order_acquire)) return PostResult::Ok;
  if (!alive_[dst].load(std::memory_order_acquire)) return PostResult::Down;

  Endpoint& sep = *endpoints_[src];
  Endpoint& dep = *endpoints_[dst];

  if (!sep.consume_injection_token()) {
    sep.stats().retries_throttled.fetch_add(1, std::memory_order_relaxed);
    return PostResult::Throttled;
  }

  FaultRoll roll;
  if (link_ops_)
    roll = roll_faults(src, dst, next_link_op(src, dst), meta, meta.size);
  if (roll.drop) {
    // Vanishes in flight: the sender sees a normal local completion.
    sep.stats().faults_dropped.fetch_add(1, std::memory_order_relaxed);
    sep.stats().sends.fetch_add(1, std::memory_order_relaxed);
    sep.stats().bytes_tx.fetch_add(meta.size, std::memory_order_relaxed);
    if (telemetry::enabled() && meta.trace_id != 0) {
      char hbuf[48];
      std::snprintf(hbuf, sizeof(hbuf), "{\"dst\":%u,\"seq\":%u}", dst,
                    meta.seq);
      // From the sender's view the post succeeded; the wire ate it. Record
      // both so stitched flows read post -> drop per attempt.
      telemetry::hop("post", src, meta.trace_id, meta.attempt, hbuf);
      telemetry::hop("drop", src, meta.trace_id, meta.attempt, hbuf);
    }
    return PostResult::Ok;
  }

  // Header-only control packets (reliability acks/probes) bypass the rx
  // window so acknowledgements can land even when it is exhausted.
  const bool ctrl = (meta.rel & kRelCtrl) != 0;
  if (ctrl && meta.size != 0) return PostResult::Invalid;

  RxSlot slot;
  if (!ctrl) {
    if (!dep.take_rx_slot(slot)) {
      sep.stats().retries_no_rx.fetch_add(1, std::memory_order_relaxed);
      return PostResult::NoRxBuffer;
    }
    if (meta.size > slot.capacity) {
      dep.return_rx_slot(slot);
      return PostResult::TooLarge;
    }
  }

  // Kill-at-op trigger: counts the victim's accepted first transmissions of
  // data operations only. Control traffic and retransmits (a late ack
  // under load times out and re-sends data even on a loss-free fabric) run
  // on timing-dependent schedules; first data posts are deterministic per
  // round.
  if (host_ops_ && !ctrl && meta.attempt == 0) {
    const std::uint64_t op =
        host_ops_[src].fetch_add(1, std::memory_order_relaxed) + 1;
    const FaultProfile& fp = config_.fault;
    if (static_cast<std::int32_t>(src) == fp.kill_host &&
        fp.kill_at_op > 0 && op == fp.kill_at_op &&
        !kill_fired_.exchange(true, std::memory_order_acq_rel)) {
      dep.return_rx_slot(slot);
      kill_now(src);
      return PostResult::Ok;  // the operation dies with the host
    }
  }

  if (config_.doorbell_cost_ns > 0) rt::spin_for_ns(config_.doorbell_cost_ns);

  if (meta.size > 0) std::memcpy(slot.buffer, payload, meta.size);
  if (roll.corrupt && meta.size > 0) {
    static_cast<unsigned char*>(slot.buffer)[roll.corrupt_byte] ^= 0x10;
    sep.stats().faults_corrupted.fetch_add(1, std::memory_order_relaxed);
  }
  meta.src = src;

  Cqe cqe;
  cqe.kind = Cqe::Kind::Recv;
  cqe.meta = meta;
  cqe.buffer = ctrl ? nullptr : slot.buffer;
  cqe.rx_context = ctrl ? kCtrlRxContext : slot.context;
  cqe.deliver_at_ns = delivery_time_ns(meta.size) + roll.delay_ns;
  cqe.epoch = epoch_.load(std::memory_order_relaxed);

  if (!dep.push_cqe(cqe, roll.reorder)) {
    if (!ctrl) dep.return_rx_slot(slot);
    sep.stats().retries_cq_full.fetch_add(1, std::memory_order_relaxed);
    return PostResult::CqFull;
  }
  if (roll.delay_ns > 0)
    sep.stats().faults_delayed.fetch_add(1, std::memory_order_relaxed);
  if (roll.reorder)
    sep.stats().faults_reordered.fetch_add(1, std::memory_order_relaxed);

  if (roll.dup) {
    // Second delivery of the same wire bytes; best effort - a duplicate
    // that finds no buffer/CQ space is just a drop of the duplicate.
    Cqe dup_cqe = cqe;
    RxSlot dup_slot;
    bool deliver = true;
    if (!ctrl) {
      if (!dep.take_rx_slot(dup_slot)) {
        deliver = false;
      } else if (meta.size > dup_slot.capacity) {
        dep.return_rx_slot(dup_slot);
        deliver = false;
      } else {
        if (meta.size > 0)
          std::memcpy(dup_slot.buffer, slot.buffer, meta.size);
        dup_cqe.buffer = dup_slot.buffer;
        dup_cqe.rx_context = dup_slot.context;
      }
    }
    if (deliver) {
      if (dep.push_cqe(dup_cqe))
        sep.stats().faults_duplicated.fetch_add(1, std::memory_order_relaxed);
      else if (!ctrl)
        dep.return_rx_slot(dup_slot);
    }
  }

  sep.stats().sends.fetch_add(1, std::memory_order_relaxed);
  sep.stats().bytes_tx.fetch_add(meta.size, std::memory_order_relaxed);
  if (telemetry::enabled()) {
    msg_bytes_hist_->record(meta.size);
    if (meta.trace_id != 0) {
      char hbuf[64];
      std::snprintf(hbuf, sizeof(hbuf), "{\"dst\":%u,\"seq\":%u,\"bytes\":%u}",
                    dst, meta.seq, meta.size);
      telemetry::hop("post", src, meta.trace_id, meta.attempt, hbuf);
    }
  }
  return PostResult::Ok;
}

PostResult Fabric::post_put(Rank src, Rank dst, RKey rkey, std::size_t offset,
                            const void* payload, std::size_t size, bool notify,
                            MsgMeta meta) {
  if (src >= endpoints_.size() || dst >= endpoints_.size())
    return PostResult::Invalid;

  if (!alive_[src].load(std::memory_order_acquire)) return PostResult::Ok;
  if (!alive_[dst].load(std::memory_order_acquire)) return PostResult::Down;

  Endpoint& sep = *endpoints_[src];
  Endpoint& dep = *endpoints_[dst];

  if (!sep.consume_injection_token()) {
    sep.stats().retries_throttled.fetch_add(1, std::memory_order_relaxed);
    return PostResult::Throttled;
  }

  void* target = nullptr;
  if (!dep.resolve_region(rkey, offset, size, &target))
    return PostResult::Invalid;

  FaultRoll roll;
  if (link_ops_)
    roll = roll_faults(src, dst, next_link_op(src, dst), meta, size);
  if (roll.drop) {
    // The whole RDMA operation vanishes: no data is written, no completion
    // is delivered, the sender sees a normal local completion.
    sep.stats().faults_dropped.fetch_add(1, std::memory_order_relaxed);
    sep.stats().puts.fetch_add(1, std::memory_order_relaxed);
    sep.stats().bytes_tx.fetch_add(size, std::memory_order_relaxed);
    if (telemetry::enabled() && meta.trace_id != 0) {
      char hbuf[48];
      std::snprintf(hbuf, sizeof(hbuf), "{\"dst\":%u,\"seq\":%u}", dst,
                    meta.seq);
      // Sender-visible success first, then the loss (see post_send).
      telemetry::hop("post", src, meta.trace_id, meta.attempt, hbuf);
      telemetry::hop("drop", src, meta.trace_id, meta.attempt, hbuf);
    }
    return PostResult::Ok;
  }

  if (host_ops_ && !(meta.rel & kRelCtrl) && meta.attempt == 0) {
    const std::uint64_t op =
        host_ops_[src].fetch_add(1, std::memory_order_relaxed) + 1;
    const FaultProfile& fp = config_.fault;
    if (static_cast<std::int32_t>(src) == fp.kill_host &&
        fp.kill_at_op > 0 && op == fp.kill_at_op &&
        !kill_fired_.exchange(true, std::memory_order_acq_rel)) {
      kill_now(src);
      return PostResult::Ok;  // no bytes written: the host died mid-post
    }
  }

  if (config_.doorbell_cost_ns > 0) rt::spin_for_ns(config_.doorbell_cost_ns);

  if (size > 0) std::memcpy(target, payload, size);
  if (roll.corrupt && size > 0) {
    static_cast<unsigned char*>(target)[roll.corrupt_byte] ^= 0x10;
    sep.stats().faults_corrupted.fetch_add(1, std::memory_order_relaxed);
  }

  if (notify) {
    meta.src = src;
    meta.size = static_cast<std::uint32_t>(size);
    Cqe cqe;
    cqe.kind = Cqe::Kind::PutImm;
    cqe.meta = meta;
    cqe.buffer = target;  // lets the reliability layer checksum landed data
    cqe.deliver_at_ns = delivery_time_ns(size) + roll.delay_ns;
    cqe.epoch = epoch_.load(std::memory_order_relaxed);
    // A put notification consumes no rx buffer, but the CQ is still bounded.
    // Retry from the caller would re-copy the data, which is harmless
    // (idempotent write), so surface CqFull softly as well.
    if (!dep.push_cqe(cqe, roll.reorder)) {
      sep.stats().retries_cq_full.fetch_add(1, std::memory_order_relaxed);
      return PostResult::CqFull;
    }
    if (roll.delay_ns > 0)
      sep.stats().faults_delayed.fetch_add(1, std::memory_order_relaxed);
    if (roll.reorder)
      sep.stats().faults_reordered.fetch_add(1, std::memory_order_relaxed);
    if (roll.dup && dep.push_cqe(cqe))
      sep.stats().faults_duplicated.fetch_add(1, std::memory_order_relaxed);
  }

  sep.stats().puts.fetch_add(1, std::memory_order_relaxed);
  sep.stats().bytes_tx.fetch_add(size, std::memory_order_relaxed);
  if (telemetry::enabled()) {
    msg_bytes_hist_->record(size);
    if (meta.trace_id != 0) {
      char hbuf[64];
      std::snprintf(hbuf, sizeof(hbuf), "{\"dst\":%u,\"seq\":%u,\"bytes\":%zu}",
                    dst, meta.seq, size);
      telemetry::hop("post", src, meta.trace_id, meta.attempt, hbuf);
    }
  }
  return PostResult::Ok;
}

}  // namespace lcr::fabric
