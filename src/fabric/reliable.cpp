#include "fabric/reliable.hpp"

#include <cstdio>
#include <cstring>
#include <mutex>

// Layering note: the reliability channel never interprets payload bytes -
// with one read-only exception. comm/message.hpp is a dependency-free,
// header-only description of the engine framing, and peeking its ChunkHeader
// here is how a sampled message's trace context crosses from the engine wire
// format into the fabric-level MsgMeta without every backend re-implementing
// the stamp (DESIGN.md §14).
#include "comm/message.hpp"
#include "runtime/crc32.hpp"
#include "runtime/timer.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/trace.hpp"

namespace lcr::fabric {

namespace {

/// Sequence comparison tolerant of 32-bit wraparound.
inline bool seq_lt(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) < 0;
}

/// CRC-32 over the header fields that identify an operation plus its
/// payload. Excludes `src` (stamped by the fabric after posting), `rel` and
/// `ack` (both mutate per transmission attempt), and `crc` itself.
std::uint32_t meta_crc(const MsgMeta& m, const void* payload) {
  std::uint32_t c = rt::crc32_init();
  c = rt::crc32_update(c, &m.kind, sizeof(m.kind));
  c = rt::crc32_update(c, &m.tag, sizeof(m.tag));
  c = rt::crc32_update(c, &m.size, sizeof(m.size));
  c = rt::crc32_update(c, &m.imm, sizeof(m.imm));
  c = rt::crc32_update(c, &m.imm2, sizeof(m.imm2));
  c = rt::crc32_update(c, &m.seq, sizeof(m.seq));
  if (m.size > 0 && payload != nullptr)
    c = rt::crc32_update(c, payload, m.size);
  return rt::crc32_final(c);
}

/// Best-effort lift of the causal-trace context out of an outgoing payload's
/// engine framing header into the fabric-level MsgMeta, where every
/// downstream stage (fabric post/drop, retransmit, delivery) can see it
/// without touching payload bytes again. The ChunkHeader's Fletcher
/// self-check plus field constraints make a false positive on non-engine
/// payloads (control tails, raw records) negligible; anything that fails the
/// peek simply travels unstamped. MPI-probe aggregates length-prefix each
/// framed record, so the first record is also tried at a 4-byte offset
/// (later records of an aggregate are untraced - documented best-effort).
void stamp_trace(MsgMeta& meta, const void* payload, std::size_t size) {
  if (meta.trace_id != 0) return;  // already stamped upstream
  if (payload == nullptr || !telemetry::enabled() ||
      telemetry::trace_sample_every() == 0)
    return;
  const auto* bytes = static_cast<const std::byte*>(payload);
  comm::ChunkHeader h;
  if (size >= comm::kChunkHeaderBytes) {
    std::memcpy(&h, bytes, sizeof(h));
    if (h.valid() && h.trace_id != 0) {
      meta.trace_id = h.trace_id;
      return;
    }
  }
  if (size >= sizeof(std::uint32_t) + comm::kChunkHeaderBytes) {
    std::uint32_t rec = 0;
    std::memcpy(&rec, bytes, sizeof(rec));
    if (rec >= comm::kChunkHeaderBytes && rec <= size - sizeof(rec)) {
      std::memcpy(&h, bytes + sizeof(rec), sizeof(h));
      if (h.valid() && h.trace_id != 0) meta.trace_id = h.trace_id;
    }
  }
}

}  // namespace

ReliableChannel::ReliableChannel(Fabric& fabric, Rank rank,
                                 ReliabilityConfig cfg, const char* owner)
    : fabric_(fabric),
      endpoint_(fabric.endpoint(rank)),
      rank_(rank),
      cfg_(cfg),
      owner_(owner),
      active_(fabric.config().reliable()),
      tx_links_(fabric.num_ranks()),
      rx_links_(fabric.num_ranks()) {
  // Keep sender window and receiver reorder window coherent: any packet
  // posted more than reorder_window ahead of the cumulative ack is refused
  // on arrival, so a larger ring only manufactures guaranteed retransmits.
  if (cfg_.ring_capacity > cfg_.reorder_window)
    cfg_.ring_capacity = cfg_.reorder_window;
  if (cfg_.max_held >= cfg_.reorder_window)
    cfg_.max_held = cfg_.reorder_window - 1;
  if (active_) {
    held_hist_ = &fabric.telemetry().histogram("rel.held_occupancy");
    rtx_gap_hist_ = &fabric.telemetry().histogram("rel.retransmit_gap_ns");
  }
}

std::uint64_t ReliableChannel::proto_now() {
  if (cfg_.tick_clock)
    return tick_.fetch_add(1, std::memory_order_relaxed) + 1;
  return rt::now_ns();
}

std::uint64_t ReliableChannel::rto_for(std::uint32_t attempts) const {
  const std::uint32_t shift = attempts < 16 ? attempts : 16;
  const std::uint64_t rto = cfg_.rto_ns << shift;
  return rto < cfg_.rto_max_ns ? rto : cfg_.rto_max_ns;
}

void ReliableChannel::stamp_ack(Rank dst, MsgMeta& meta) {
  // Lock-free piggyback on the data fast path: a slightly stale cumulative
  // ack is still a valid cumulative ack, and the standalone ack path owns
  // nack / ack_dirty flushing. The unsynchronized counter reset can lose a
  // concurrent increment; worst case the next cumulative ack rides the
  // rto/4 timer and the peer retransmits once - benign, never incorrect.
  RxLink& rx = rx_links_[dst];
  meta.rel |= kRelAck;
  meta.ack = rx.expected.load(std::memory_order_relaxed);
  if (rx.delivered_since_ack.load(std::memory_order_relaxed) != 0)
    rx.delivered_since_ack.store(0, std::memory_order_relaxed);
}

PostResult ReliableChannel::post_entry(Rank dst, TxEntry& e) {
  stamp_ack(dst, e.meta);
  if (e.is_put)
    return fabric_.post_put(rank_, dst, e.rkey, e.offset,
                            e.payload.empty() ? nullptr : e.payload.data(),
                            e.meta.size, /*notify=*/true, e.meta);
  return fabric_.post_send(rank_, dst,
                           e.payload.empty() ? nullptr : e.payload.data(),
                           e.meta);
}

PostResult ReliableChannel::send(Rank dst, const void* payload, MsgMeta meta) {
  stamp_trace(meta, payload, meta.size);
  if (!active_) return fabric_.post_send(rank_, dst, payload, meta);
  if (dst >= tx_links_.size()) return PostResult::Invalid;
  if (meta.size > fabric_.config().mtu) return PostResult::TooLarge;

  TxLink& tx = tx_links_[dst];
  for (int attempt = 0; attempt < 2; ++attempt) {
    {
      std::lock_guard<rt::Spinlock> guard(tx.lock);
      // Dead peer: swallow the operation. The membership layer has already
      // been told; recovery discards all protocol state on both sides.
      if (tx.down) return PostResult::Ok;
      if (tx.ring.size() < cfg_.ring_capacity) {
        TxEntry e;
        e.seq = tx.next_seq;
        e.meta = meta;
        e.meta.rel |= kRelSeq;
        e.meta.seq = e.seq;
        e.meta.crc = meta_crc(e.meta, payload);
        if (meta.size > 0) {
          if (!tx.spares.empty()) {
            e.payload = std::move(tx.spares.back());
            tx.spares.pop_back();
          }
          const auto* p = static_cast<const std::byte*>(payload);
          e.payload.assign(p, p + meta.size);
        }
        const std::uint64_t now =
            cfg_.tick_clock ? tick_.load(std::memory_order_relaxed)
                            : rt::now_ns();
        e.last_tx = now;
        e.last_data_tx = now;
        const PostResult r = post_entry(dst, e);
        if (r == PostResult::TooLarge || r == PostResult::Invalid) return r;
        if (r == PostResult::Down) {
          note_down(dst, tx);
          return PostResult::Ok;
        }
        e.posted_ok = (r == PostResult::Ok);
        tx.next_seq++;
        tx.ring.push_back(std::move(e));
        tx.inflight.store(tx.ring.size(), std::memory_order_relaxed);
        inflight_.fetch_add(1, std::memory_order_relaxed);
        endpoint_.stats().rel_data_tx.fetch_add(1, std::memory_order_relaxed);
        note_progress(now);
        return PostResult::Ok;
      }
    }
    // Ring full: reap acks once, then retry; never surfaces data (pump
    // stages those for poll), so this is safe from blocked send paths.
    if (attempt == 0) pump();
  }
  return PostResult::RetransmitFull;
}

PostResult ReliableChannel::put(Rank dst, RKey rkey, std::size_t offset,
                                const void* payload, std::size_t size,
                                bool notify, MsgMeta meta) {
  stamp_trace(meta, payload, size);
  if (!active_)
    return fabric_.post_put(rank_, dst, rkey, offset, payload, size, notify,
                            meta);
  if (dst >= tx_links_.size()) return PostResult::Invalid;

  TxLink& tx = tx_links_[dst];
  for (int attempt = 0; attempt < 2; ++attempt) {
    {
      std::lock_guard<rt::Spinlock> guard(tx.lock);
      if (tx.down) return PostResult::Ok;
      if (tx.ring.size() < cfg_.ring_capacity) {
        TxEntry e;
        e.seq = tx.next_seq;
        e.is_put = true;
        e.rkey = rkey;
        e.offset = offset;
        e.meta = meta;
        e.meta.size = static_cast<std::uint32_t>(size);
        e.meta.rel |= kRelSeq;
        if (!notify) e.meta.rel |= kRelBare;
        e.meta.seq = e.seq;
        e.meta.crc = meta_crc(e.meta, payload);
        if (size > 0) {
          if (!tx.spares.empty()) {
            e.payload = std::move(tx.spares.back());
            tx.spares.pop_back();
          }
          const auto* p = static_cast<const std::byte*>(payload);
          e.payload.assign(p, p + size);
        }
        const std::uint64_t now =
            cfg_.tick_clock ? tick_.load(std::memory_order_relaxed)
                            : rt::now_ns();
        e.last_tx = now;
        e.last_data_tx = now;
        const PostResult r = post_entry(dst, e);
        if (r == PostResult::TooLarge || r == PostResult::Invalid) return r;
        if (r == PostResult::Down) {
          note_down(dst, tx);
          return PostResult::Ok;
        }
        e.posted_ok = (r == PostResult::Ok);
        tx.next_seq++;
        tx.ring.push_back(std::move(e));
        tx.inflight.store(tx.ring.size(), std::memory_order_relaxed);
        inflight_.fetch_add(1, std::memory_order_relaxed);
        endpoint_.stats().rel_data_tx.fetch_add(1, std::memory_order_relaxed);
        note_progress(now);
        return PostResult::Ok;
      }
    }
    if (attempt == 0) pump();
  }
  return PostResult::RetransmitFull;
}

void ReliableChannel::recycle(const Cqe& cqe) {
  if (cqe.kind == Cqe::Kind::Recv && recycle_) recycle_(cqe);
}

void ReliableChannel::handle_ack(Rank peer, std::uint32_t ack,
                                 std::uint32_t nack_plus1) {
  TxLink& tx = tx_links_[peer];
  std::lock_guard<rt::Spinlock> guard(tx.lock);
  endpoint_.stats().rel_acks_rx.fetch_add(1, std::memory_order_relaxed);
  bool advanced = false;
  while (!tx.ring.empty() && seq_lt(tx.ring.front().seq, ack)) {
    TxEntry& front = tx.ring.front();
    if (front.payload.capacity() > 0 && tx.spares.size() < 64)
      tx.spares.push_back(std::move(front.payload));
    tx.ring.pop_front();
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    advanced = true;
  }
  if (advanced)
    tx.inflight.store(tx.ring.size(), std::memory_order_relaxed);
  if (seq_lt(tx.acked, ack)) tx.acked = ack;
  const std::uint64_t now = cfg_.tick_clock
                                ? tick_.load(std::memory_order_relaxed)
                                : rt::now_ns();
  if (advanced) note_progress(now);

  if (nack_plus1 != 0) {
    // Explicit retransmit request: the receiver confirmed this sequence
    // number did not arrive, so a full re-send/re-put is safe.
    const std::uint32_t want = nack_plus1 - 1;
    for (TxEntry& e : tx.ring) {
      if (e.seq != want) continue;
      // First nack for a never-retransmitted entry is always genuine - act
      // on it immediately. After that, rate-limit: several receiver-side
      // events can nack the same gap head before the re-send lands, and a
      // probe answered by this nack must not suppress the re-send it asked
      // for (hence the guard runs on last *data* transmission).
      if (e.attempts == 0 || now - e.last_data_tx >= cfg_.rto_ns / 4) {
        if (telemetry::enabled() && now > e.last_data_tx)
          rtx_gap_hist_->record(now - e.last_data_tx);
        e.meta.attempt = static_cast<std::uint16_t>(e.attempts + 1);
        if (telemetry::enabled() && e.meta.trace_id != 0) {
          char hbuf[64];
          std::snprintf(hbuf, sizeof(hbuf),
                        "{\"peer\":%u,\"seq\":%u,\"cause\":\"nack\"}", peer,
                        e.seq);
          telemetry::hop("retransmit", rank_, e.meta.trace_id,
                         e.meta.attempt, hbuf);
        }
        const PostResult r = post_entry(peer, e);
        if (r == PostResult::Down) {
          note_down(peer, tx);
          return;
        }
        if (r == PostResult::Ok) e.posted_ok = true;
        e.last_tx = now;
        e.last_data_tx = now;
        e.attempts++;
        endpoint_.stats().rel_retransmits.fetch_add(
            1, std::memory_order_relaxed);
      }
      break;
    }
  }
}

void ReliableChannel::handle_probe(Rank peer, std::uint32_t seq) {
  RxLink& rx = rx_links_[peer];
  std::lock_guard<rt::Spinlock> guard(rx.lock);
  const std::uint32_t expected = rx.expected.load(std::memory_order_relaxed);
  if (seq_lt(seq, expected) || rx.held.count(seq) != 0) {
    // Delivered (or buffered): the cumulative ack answers the probe; for a
    // held seq the nack below additionally requests the gap head.
    if (rx.held.count(seq) != 0) rx.nack_seq_plus1 = expected + 1;
  } else {
    // Lost: ask for it (go-back-N from the gap head).
    rx.nack_seq_plus1 = expected + 1;
  }
  rx.ack_dirty.store(true, std::memory_order_relaxed);
}

void ReliableChannel::handle_data(Cqe& cqe) {
  const MsgMeta& m = cqe.meta;
  RxLink& rx = rx_links_[m.src];
  std::lock_guard<rt::Spinlock> guard(rx.lock);

  const std::uint32_t seq = m.seq;
  const std::uint32_t expected = rx.expected.load(std::memory_order_relaxed);
  if (seq_lt(seq, expected) || rx.held.count(seq) != 0) {
    // Duplicate (retransmission of something already delivered, or a
    // fault-injected duplicate delivery).
    endpoint_.stats().rel_dup_dropped.fetch_add(1, std::memory_order_relaxed);
    if (telemetry::enabled() && m.trace_id != 0) {
      char hbuf[48];
      std::snprintf(hbuf, sizeof(hbuf), "{\"src\":%u,\"seq\":%u}", m.src, seq);
      telemetry::hop("dup", rank_, m.trace_id, m.attempt, hbuf);
    }
    rx.ack_dirty.store(true, std::memory_order_relaxed);
    recycle(cqe);
    return;
  }

  // Integrity check before anything is surfaced. For puts this checksums
  // the landed bytes in the registered target region.
  if (meta_crc(m, cqe.buffer) != m.crc) {
    endpoint_.stats().rel_crc_dropped.fetch_add(1, std::memory_order_relaxed);
    if (telemetry::enabled() && m.trace_id != 0) {
      char hbuf[64];
      std::snprintf(hbuf, sizeof(hbuf),
                    "{\"src\":%u,\"seq\":%u,\"cause\":\"crc\"}", m.src, seq);
      telemetry::hop("nack", rank_, m.trace_id, m.attempt, hbuf);
    }
    rx.nack_seq_plus1 = seq + 1;  // confirmed damaged: request a re-send
    rx.ack_dirty.store(true, std::memory_order_relaxed);
    recycle(cqe);
    return;
  }

  auto deliver = [&](Cqe& ready) {
    rx.expected.fetch_add(1, std::memory_order_relaxed);
    rx.delivered_since_ack.fetch_add(1, std::memory_order_relaxed);
    endpoint_.stats().rel_delivered.fetch_add(1, std::memory_order_relaxed);
    if (telemetry::enabled() && ready.meta.trace_id != 0) {
      char hbuf[48];
      std::snprintf(hbuf, sizeof(hbuf), "{\"src\":%u,\"seq\":%u}",
                    ready.meta.src, ready.meta.seq);
      telemetry::hop("deliver", rank_, ready.meta.trace_id,
                     ready.meta.attempt, hbuf);
    }
    if (ready.meta.rel & kRelBare) {
      // Transport-internal put notification: acked but never surfaced.
      recycle(ready);
    } else {
      std::lock_guard<rt::Spinlock> rguard(ready_lock_);
      ready_.push_back(ready);
      ready_count_.fetch_add(1, std::memory_order_release);
    }
  };

  if (seq == expected) {
    deliver(cqe);
    // Drain any held completions the gap was blocking.
    for (auto it = rx.held.find(rx.expected.load(std::memory_order_relaxed));
         it != rx.held.end();
         it = rx.held.find(rx.expected.load(std::memory_order_relaxed))) {
      Cqe held = it->second;
      rx.held.erase(it);
      deliver(held);
    }
    // Packets still held past the drain mean the next gap head was also
    // lost: chain the retransmit request now instead of letting recovery
    // serialize on one sender RTO per gap.
    if (!rx.held.empty()) {
      rx.nack_seq_plus1 = rx.expected.load(std::memory_order_relaxed) + 1;
      rx.ack_dirty.store(true, std::memory_order_relaxed);
    }
    const std::uint64_t now = cfg_.tick_clock
                                  ? tick_.load(std::memory_order_relaxed)
                                  : rt::now_ns();
    note_progress(now);
    return;
  }

  // Out of order: hold a bounded number; drop the rest (the sender's
  // go-back-N retransmission covers them). The bound keeps held packets
  // from pinning the whole receive window while the gap is in flight.
  if (rx.held.size() < cfg_.max_held && seq - expected < cfg_.reorder_window) {
    rx.held.emplace(seq, cqe);
    endpoint_.stats().rel_ooo_held.fetch_add(1, std::memory_order_relaxed);
    if (telemetry::enabled()) held_hist_->record(rx.held.size());
  } else {
    endpoint_.stats().rel_ooo_dropped.fetch_add(1, std::memory_order_relaxed);
    if (telemetry::enabled() && m.trace_id != 0) {
      char hbuf[48];
      std::snprintf(hbuf, sizeof(hbuf), "{\"src\":%u,\"seq\":%u}", m.src, seq);
      telemetry::hop("ooo_drop", rank_, m.trace_id, m.attempt, hbuf);
    }
    recycle(cqe);
  }
  rx.nack_seq_plus1 = expected + 1;  // request the gap head
  rx.ack_dirty.store(true, std::memory_order_relaxed);
}

void ReliableChannel::service_tx(std::uint64_t now) {
  if (inflight_.load(std::memory_order_relaxed) == 0) return;
  for (Rank dst = 0; dst < tx_links_.size(); ++dst) {
    TxLink& tx = tx_links_[dst];
    if (tx.inflight.load(std::memory_order_relaxed) == 0) continue;
    std::lock_guard<rt::Spinlock> guard(tx.lock);
    if (tx.ring.empty()) continue;

    // First-chance flush of entries whose initial post was refused
    // (NoRxBuffer / Throttled / CqFull); keep posting order.
    bool down = false;
    for (TxEntry& e : tx.ring) {
      if (e.posted_ok) continue;
      const PostResult r = post_entry(dst, e);
      if (r == PostResult::Down) {
        down = true;
        break;
      }
      if (r != PostResult::Ok) break;
      e.posted_ok = true;
      e.last_tx = now;
      e.last_data_tx = now;
    }
    if (down) {
      note_down(dst, tx);
      continue;
    }

    // Timeout-driven recovery on the oldest unacked operation. Eager sends
    // are re-sent directly; puts are probed first, because re-writing a
    // region whose original delivery merely lost its ack could clobber
    // data the receiver has already consumed.
    TxEntry& front = tx.ring.front();
    if (!front.posted_ok) continue;
    if (now - front.last_tx < rto_for(front.attempts)) continue;
    if (front.is_put) {
      MsgMeta probe;
      probe.kind = front.meta.kind;
      probe.rel = kRelCtrl | kRelProbe;
      probe.seq = front.seq;
      if (telemetry::enabled() && front.meta.trace_id != 0) {
        char hbuf[48];
        std::snprintf(hbuf, sizeof(hbuf), "{\"peer\":%u,\"seq\":%u}", dst,
                      front.seq);
        telemetry::hop("probe", rank_, front.meta.trace_id,
                       front.attempts + 1, hbuf);
      }
      if (fabric_.post_send(rank_, dst, nullptr, probe) == PostResult::Down) {
        note_down(dst, tx);
        continue;
      }
      endpoint_.stats().rel_probes_tx.fetch_add(1, std::memory_order_relaxed);
    } else {
      if (telemetry::enabled() && now > front.last_data_tx)
        rtx_gap_hist_->record(now - front.last_data_tx);
      front.meta.attempt = static_cast<std::uint16_t>(front.attempts + 1);
      if (telemetry::enabled() && front.meta.trace_id != 0) {
        char hbuf[64];
        std::snprintf(hbuf, sizeof(hbuf),
                      "{\"peer\":%u,\"seq\":%u,\"cause\":\"rto\"}", dst,
                      front.seq);
        telemetry::hop("retransmit", rank_, front.meta.trace_id,
                       front.meta.attempt, hbuf);
      }
      const PostResult r = post_entry(dst, front);
      if (r == PostResult::Down) {
        note_down(dst, tx);
        continue;
      }
      if (r == PostResult::Ok) front.posted_ok = true;
      front.last_data_tx = now;
      endpoint_.stats().rel_retransmits.fetch_add(1,
                                                  std::memory_order_relaxed);
    }
    front.last_tx = now;
    front.attempts++;
    if (cfg_.suspect_after_attempts > 0 && !tx.suspected &&
        front.attempts >= cfg_.suspect_after_attempts)
      note_suspect(dst, tx, front.attempts);
  }
}

void ReliableChannel::note_suspect(Rank dst, TxLink& tx,
                                   std::uint32_t attempts) {
  tx.suspected = true;
  endpoint_.stats().rel_suspected_dead.fetch_add(1, std::memory_order_relaxed);
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "{\"owner\":\"%s\",\"peer\":%u,\"attempts\":%u}", owner_, dst,
                attempts);
  if (telemetry::enabled()) telemetry::instant("rel", "suspect_dead", rank_, buf);
  telemetry::flight_record(rank_, "rel.suspect_dead", buf);
  fabric_.report_suspected_dead(rank_, dst);
}

void ReliableChannel::note_down(Rank dst, TxLink& tx) {
  if (tx.down) return;
  tx.down = true;
  const std::size_t dropped = tx.ring.size();
  for (TxEntry& e : tx.ring)
    if (e.payload.capacity() > 0 && tx.spares.size() < 64)
      tx.spares.push_back(std::move(e.payload));
  tx.ring.clear();
  tx.inflight.store(0, std::memory_order_relaxed);
  if (dropped > 0) inflight_.fetch_sub(dropped, std::memory_order_relaxed);
  if (!tx.suspected) {
    tx.suspected = true;
    endpoint_.stats().rel_suspected_dead.fetch_add(1,
                                                   std::memory_order_relaxed);
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "{\"owner\":\"%s\",\"peer\":%u,\"dropped\":%zu}", owner_, dst,
                dropped);
  if (telemetry::enabled()) telemetry::instant("rel", "peer_down", rank_, buf);
  telemetry::flight_record(rank_, "rel.peer_down", buf);
  fabric_.report_suspected_dead(rank_, dst);
}

void ReliableChannel::send_ack(Rank peer, RxLink& rx) {
  MsgMeta meta;
  meta.rel = kRelCtrl | kRelAck;
  meta.ack = rx.expected.load(std::memory_order_relaxed);
  meta.imm = rx.nack_seq_plus1;
  const PostResult r = fabric_.post_send(rank_, peer, nullptr, meta);
  if (r == PostResult::Ok)
    endpoint_.stats().rel_acks_tx.fetch_add(1, std::memory_order_relaxed);
  // A dead peer needs no acknowledgements: clear the flags so the flush
  // loop does not spin on a link that will only be rebuilt after recovery.
  if (r == PostResult::Ok || r == PostResult::Down) {
    rx.delivered_since_ack.store(0, std::memory_order_relaxed);
    rx.ack_dirty.store(false, std::memory_order_relaxed);
    rx.nack_seq_plus1 = 0;
  }
}

void ReliableChannel::flush_acks(std::uint64_t now) {
  for (Rank peer = 0; peer < rx_links_.size(); ++peer) {
    RxLink& rx = rx_links_[peer];
    // Lock-free peek: quiet links (the common case) cost two relaxed loads.
    // A transition racing past the peek is flushed on the next pump.
    if (!rx.ack_dirty.load(std::memory_order_relaxed) &&
        rx.delivered_since_ack.load(std::memory_order_relaxed) == 0)
      continue;
    std::lock_guard<rt::Spinlock> guard(rx.lock);
    const std::uint32_t delivered =
        rx.delivered_since_ack.load(std::memory_order_relaxed);
    const bool due =
        rx.ack_dirty.load(std::memory_order_relaxed) ||
        delivered >= cfg_.ack_every ||
        (delivered > 0 && now - rx.last_ack_tx >= cfg_.rto_ns / 4);
    if (!due) continue;
    send_ack(peer, rx);
    rx.last_ack_tx = now;
  }
}

void ReliableChannel::pump() {
  if (!active_) return;
  // Wall-clock reads are deferred until some timer actually needs one; the
  // tick clock must still advance exactly once per pump for replay tests.
  std::uint64_t now = cfg_.tick_clock ? proto_now() : 0;

  while (auto cqe = endpoint_.poll_cq()) {
    const MsgMeta& m = cqe->meta;
    if (m.rel & kRelAck)
      handle_ack(m.src, m.ack, (m.rel & kRelCtrl) ? m.imm : 0);
    if (m.rel & kRelProbe) {
      handle_probe(m.src, m.seq);
      continue;
    }
    if (m.rel & kRelCtrl) continue;  // standalone ack: fully consumed
    if (m.rel & kRelSeq) {
      handle_data(*cqe);
    } else {
      // Unsequenced traffic on an active channel (e.g. a layer that posted
      // before reliability was wired): pass through untouched.
      std::lock_guard<rt::Spinlock> guard(ready_lock_);
      ready_.push_back(*cqe);
      ready_count_.fetch_add(1, std::memory_order_release);
    }
  }

  const bool tx_work = inflight_.load(std::memory_order_relaxed) != 0;
  bool ack_work = false;
  for (const RxLink& rx : rx_links_) {
    if (rx.ack_dirty.load(std::memory_order_relaxed) ||
        rx.delivered_since_ack.load(std::memory_order_relaxed) != 0) {
      ack_work = true;
      break;
    }
  }
  if (!tx_work && !ack_work) return;
  if (now == 0) now = rt::now_ns();

  service_tx(now);
  flush_acks(now);

  if (cfg_.watchdog_quiet_ns > 0) {
    const std::uint64_t last = last_progress_.load(std::memory_order_relaxed);
    if (now > last && now - last >= cfg_.watchdog_quiet_ns &&
        has_inflight()) {
      std::uint64_t dumped = last_dump_.load(std::memory_order_relaxed);
      if ((dumped == 0 || now - dumped >= cfg_.watchdog_quiet_ns) &&
          last_dump_.compare_exchange_strong(dumped, now,
                                             std::memory_order_relaxed)) {
        endpoint_.stats().rel_stall_dumps.fetch_add(
            1, std::memory_order_relaxed);
        dump_state("progress stall");
        // A stall is exactly the anomaly the flight recorder exists for:
        // snapshot the context and dump the ring while the evidence is hot.
        char fbuf[96];
        std::snprintf(fbuf, sizeof(fbuf),
                      "{\"owner\":\"%s\",\"quiet_ns\":%llu,\"inflight\":%zu}",
                      owner_,
                      static_cast<unsigned long long>(now - last),
                      inflight_.load(std::memory_order_relaxed));
        telemetry::flight_record(rank_, "rel.stall", fbuf);
        telemetry::flight_dump("rel_stall");
      }
    }
  }
}

std::optional<Cqe> ReliableChannel::poll() {
  if (!active_) return endpoint_.poll_cq();
  // Drain staged completions before pumping again: callers poll in a loop,
  // so the protocol still gets pumped on every empty poll, which is all
  // forward progress needs.
  if (ready_count_.load(std::memory_order_acquire) == 0) {
    pump();
    if (ready_count_.load(std::memory_order_acquire) == 0) return std::nullopt;
  }
  std::lock_guard<rt::Spinlock> guard(ready_lock_);
  if (ready_.empty()) return std::nullopt;
  Cqe out = ready_.front();
  ready_.pop_front();
  ready_count_.fetch_sub(1, std::memory_order_relaxed);
  return out;
}

bool ReliableChannel::has_inflight() const {
  return inflight_.load(std::memory_order_relaxed) != 0;
}

void ReliableChannel::dump_state(const char* reason) const {
  // Per-link state goes to stderr for humans and, when tracing is live, into
  // the trace as instant events so a stall is inspectable post-mortem next
  // to the spans it interrupted.
  const bool traced = telemetry::enabled();
  char buf[256];
  if (traced) {
    std::snprintf(buf, sizeof(buf), "{\"owner\":\"%s\",\"reason\":\"%s\"}",
                  owner_, reason);
    telemetry::instant("rel", "stall_dump", rank_, buf);
  }
  std::fprintf(stderr,
               "[reliable:%s rank=%u] %s - per-link protocol state:\n",
               owner_, rank_, reason);
  for (Rank dst = 0; dst < tx_links_.size(); ++dst) {
    const TxLink& tx = tx_links_[dst];
    std::lock_guard<rt::Spinlock> guard(tx.lock);
    if (tx.ring.empty() && tx.next_seq == 0) continue;
    const TxEntry* front = tx.ring.empty() ? nullptr : &tx.ring.front();
    // Watchdog triage: "slow" = making (or awaiting) progress, "suspect" =
    // bounded retransmission exhausted, "dead" = the fabric reported Down.
    const char* peer_state =
        tx.down ? "dead" : (tx.suspected ? "suspect" : "slow");
    std::fprintf(
        stderr,
        "  tx->%u: peer=%s in_flight=%zu next_seq=%u acked=%u front_seq=%d "
        "attempts=%u posted=%d put=%d\n",
        dst, peer_state, tx.ring.size(), tx.next_seq, tx.acked,
        front ? static_cast<int>(front->seq) : -1,
        front ? front->attempts : 0, front ? front->posted_ok : 0,
        front ? front->is_put : 0);
    if (traced) {
      std::snprintf(
          buf, sizeof(buf),
          "{\"peer\":%u,\"state\":\"%s\",\"in_flight\":%zu,\"next_seq\":%u,"
          "\"acked\":%u,\"front_seq\":%d,\"attempts\":%u,\"posted\":%d,"
          "\"put\":%d}",
          dst, peer_state, tx.ring.size(), tx.next_seq, tx.acked,
          front ? static_cast<int>(front->seq) : -1,
          front ? front->attempts : 0, front ? front->posted_ok : 0,
          front ? front->is_put : 0);
      telemetry::instant("rel", "stall_link_tx", rank_, buf);
    }
  }
  for (Rank src = 0; src < rx_links_.size(); ++src) {
    const RxLink& rx = rx_links_[src];
    std::lock_guard<rt::Spinlock> guard(rx.lock);
    const std::uint32_t expected =
        rx.expected.load(std::memory_order_relaxed);
    if (expected == 0 && rx.held.empty()) continue;
    std::fprintf(stderr,
                 "  rx<-%u: expected=%u held=%zu unacked_deliveries=%u "
                 "nack_pending=%u\n",
                 src, expected, rx.held.size(),
                 rx.delivered_since_ack.load(std::memory_order_relaxed),
                 rx.nack_seq_plus1);
    if (traced) {
      std::snprintf(
          buf, sizeof(buf),
          "{\"peer\":%u,\"expected\":%u,\"held\":%zu,"
          "\"unacked_deliveries\":%u,\"nack_pending\":%u}",
          src, expected, rx.held.size(),
          rx.delivered_since_ack.load(std::memory_order_relaxed),
          rx.nack_seq_plus1);
      telemetry::instant("rel", "stall_link_rx", rank_, buf);
    }
  }
}

}  // namespace lcr::fabric
