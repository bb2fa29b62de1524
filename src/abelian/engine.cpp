#include "abelian/engine.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "runtime/cpu_relax.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/trace.hpp"

namespace lcr::abelian {

namespace {
EngineConfig with_resolved_direct_write(EngineConfig cfg) {
  cfg.direct_write = comm::resolve_direct_write(cfg.direct_write);
  return cfg;
}
}  // namespace

HostEngine::HostEngine(Cluster& cluster, const graph::DistGraph& graph,
                       EngineConfig cfg)
    : cluster_(cluster),
      graph_(graph),
      cfg_(with_resolved_direct_write(std::move(cfg))),
      backend_(comm::make_backend(
          cfg_.backend, cluster.fabric(), graph.host_id,
          [&] {
            // Blocking backend synchronization (MPI-RMA epochs) must unwind
            // when a host dies, or survivors wedge waiting on the victim.
            auto opt = cfg_.backend_options;
            opt.abort_check = [&m = cluster.membership()] {
              return m.failure_pending();
            };
            return opt;
          }())),
      team_(std::make_unique<rt::ThreadTeam>(cfg.compute_threads)),
      send_queue_(1024),
      recv_queue_(cfg.recv_queue_capacity),
      stash_(cfg_.stash_cap, comm::StashCounters{&stats_.stash_peak,
                                                 &stats_.stash_drops,
                                                 &stats_.direct_stale}),
      landing_(cluster.direct_directory(), graph.host_id,
               cfg_.backend_options.tracker),
      apply_queue_(4096),
      shard_locks_(graph.num_local) {
  apply_workers_ = cfg_.apply_workers == 0 ? team_->size()
                                           : cfg_.apply_workers;
  apply_workers_ = std::min(std::max<std::size_t>(apply_workers_, 1),
                            team_->size());
  stats_.apply_threads.store(apply_workers_, std::memory_order_relaxed);
  stats_.graph_mem_bytes.store(graph.mem_bytes(), std::memory_order_relaxed);
  stats_.graph_mem_bytes_uncompressed.store(graph.mem_bytes_uncompressed(),
                                            std::memory_order_relaxed);
  stats_.graph_mirrors.store(graph.num_local - graph.num_masters,
                             std::memory_order_relaxed);
  stat_reg_ = cluster.fabric().telemetry().register_probes({
      {"abelian.messages_sent", &stats_.messages_sent},
      {"abelian.bytes_sent", &stats_.bytes_sent},
      {"sync.gather_ns", &stats_.gather_ns},
      {"sync.bytes_saved", &stats_.bytes_saved},
      {"sync.fmt_sparse", &stats_.fmt_sparse},
      {"sync.fmt_varint", &stats_.fmt_varint},
      {"sync.fmt_dense", &stats_.fmt_dense},
      {"sync.decode_rejects", &stats_.decode_rejects},
      {"sync.apply_ns", &stats_.apply_ns},
      {"sync.apply_threads", &stats_.apply_threads},
      {"sync.shard_contended", &stats_.shard_contended},
      {"sync.stash_peak", &stats_.stash_peak},
      {"sync.stash_drops", &stats_.stash_drops},
      {"sync.direct_sends", &stats_.direct_sends},
      {"sync.direct_bytes", &stats_.direct_bytes},
      {"sync.direct_ns", &stats_.direct_ns},
      {"sync.direct_stale", &stats_.direct_stale},
      {"sync.direct_fallbacks", &stats_.direct_fallbacks},
      {"graph.mem_bytes", &stats_.graph_mem_bytes},
      {"graph.mem_bytes_uncompressed", &stats_.graph_mem_bytes_uncompressed},
      {"graph.mirrors", &stats_.graph_mirrors},
  });
  comm_thread_ = rt::AuxThread([this] { comm_thread_loop(); });
}

HostEngine::~HostEngine() {
  stop_.store(true, std::memory_order_release);
  if (comm_thread_.joinable()) comm_thread_.join();
  // Drop anything still queued (teardown only; release() recycles backend
  // resources which are about to be destroyed anyway). The apply queue is
  // provably empty after every completed phase - each enqueued slice ran
  // before its chunk was noted - but an aborted phase (host failure) leaves
  // unfinished slices behind.
  while (auto s = apply_queue_.try_pop()) abort_slice(*s);
  while (auto m = recv_queue_.try_pop()) delete *m;
  while (auto w = send_queue_.try_pop()) delete *w;
  // Stashed messages are copies (no backend resources); the landing regions
  // retract, unregister, quiesce the backend and only then free.
  landing_.close(backend_);
}

// ---------------------------------------------------------------------------
// Communication thread
// ---------------------------------------------------------------------------

void HostEngine::post_cmd(Cmd cmd, const comm::PhaseSpec* spec) {
  if (backend_->thread_safe_recv()) {
    // LCI: phase hooks are trivial and thread-safe; run them inline.
    switch (cmd) {
      case Cmd::BeginPhase: backend_->begin_phase(*spec); break;
      case Cmd::Flush: backend_->flush(); break;
      case Cmd::EndPhase: backend_->end_phase(); break;
      case Cmd::None: break;
    }
    return;
  }
  const std::uint64_t before = cmd_acks_.load(std::memory_order_acquire);
  cmd_spec_ = spec;
  cmd_.store(cmd, std::memory_order_release);
  rt::Backoff backoff;
  while (cmd_acks_.load(std::memory_order_acquire) == before)
    backoff.pause();
}

void HostEngine::comm_thread_loop() {
  rt::Backoff backoff;
  telemetry::ProgressProfiler profiler(cluster_.fabric().telemetry(),
                                       "abelian.comm_thread");
  std::deque<comm::InMessage*> holding;  // messages awaiting queue space
  while (!stop_.load(std::memory_order_acquire)) {
    bool did_work = false;

    const Cmd cmd = cmd_.load(std::memory_order_acquire);
    if (cmd != Cmd::None) {
      switch (cmd) {
        case Cmd::BeginPhase: backend_->begin_phase(*cmd_spec_); break;
        case Cmd::Flush: backend_->flush(); break;
        case Cmd::EndPhase: backend_->end_phase(); break;
        case Cmd::None: break;
      }
      cmd_.store(Cmd::None, std::memory_order_relaxed);
      cmd_acks_.fetch_add(1, std::memory_order_release);
      did_work = true;
    }

    if (!backend_->thread_safe_send()) {
      // Pump queued sends into the backend (MPI layers never push back).
      while (auto work = send_queue_.try_pop()) {
        SendWork* sw = *work;
        rt::Backoff send_backoff;
        if (sw->direct) {
          // Pre-checked on the compute thread: the put can only soft-fail.
          for (;;) {
            const auto st = backend_->direct_put(
                sw->dst, sw->region, sw->lease.data, sw->bytes, sw->phase_id,
                sw->pattern_key);
            if (st != comm::DirectPutStatus::Retry || aborting()) {
              // Unavailable is unreachable for the soft-fail-free
              // emulations that take this path; tallied, not resent.
              if (st == comm::DirectPutStatus::Unavailable)
                stats_.direct_fallbacks.fetch_add(1,
                                                  std::memory_order_relaxed);
              break;
            }
            backend_->progress();
            send_backoff.pause();
          }
        } else {
          while (!backend_->commit(sw->dst, sw->lease, sw->bytes)) {
            if (aborting()) break;  // abandon the send, phase is unwinding
            backend_->progress();
            send_backoff.pause();
          }
        }
        backend_->abandon(sw->lease);  // a direct frame, or an aborted send
        delete sw;
        sends_pending_.fetch_sub(1, std::memory_order_release);
        did_work = true;
      }
    }
    if (!backend_->thread_safe_recv()) {
      // Drain arrived messages into the engine receive queue.
      while (!holding.empty() && recv_queue_.try_push(holding.front()))
        holding.pop_front();
      if (holding.empty()) {
        comm::InMessage msg;
        while (backend_->try_recv(msg)) {
          auto* m = new comm::InMessage(std::move(msg));
          if (!recv_queue_.try_push(m)) {
            holding.push_back(m);
            break;
          }
          did_work = true;
        }
      }
    }

    backend_->progress();
    profiler.note(did_work);
    if (did_work)
      backoff.reset();
    else
      backoff.pause();
  }
  for (comm::InMessage* m : holding) delete m;  // teardown
}

// ---------------------------------------------------------------------------
// Send path
// ---------------------------------------------------------------------------

void HostEngine::dispatch_chunk(int dst, comm::BufferLease& lease,
                                std::size_t total_bytes,
                                const ScatterFn& scatter, bool can_apply) {
  stats_.messages_sent.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_sent.fetch_add(total_bytes, std::memory_order_relaxed);
  if (telemetry::enabled() && total_bytes >= comm::kChunkHeaderBytes) {
    comm::ChunkHeader h;
    std::memcpy(&h, lease.data, sizeof(h));
    if (h.trace_id != 0) {
      char hbuf[48];
      std::snprintf(hbuf, sizeof(hbuf), "{\"dst\":%d,\"bytes\":%zu}", dst,
                    total_bytes);
      telemetry::hop("commit", static_cast<std::uint32_t>(graph_.host_id),
                     h.trace_id, 0, hbuf);
    }
  }
  if (cfg_.backend_options.tracker != nullptr)
    cfg_.backend_options.tracker->on_alloc(total_bytes);
  if (backend_->thread_safe_send()) {
    rt::Backoff backoff;
    while (!backend_->commit(dst, lease, total_bytes)) {
      if (aborting()) {
        backend_->abandon(lease);
        return;
      }
      // Back pressure: relieve it by receiving/scattering, then retry; the
      // lease (and its serialized payload) stays intact across retries.
      if (!drain_one(scatter, can_apply)) backoff.pause();
    }
    return;
  }
  // FUNNELED send: only the comm thread may commit; hand it the lease.
  queue_send(new SendWork{dst, std::exchange(lease, comm::BufferLease{}),
                          total_bytes},
             scatter, can_apply);
}

bool HostEngine::queue_send(SendWork* sw, const ScatterFn& scatter,
                            bool can_apply) {
  sends_pending_.fetch_add(1, std::memory_order_acq_rel);
  rt::Backoff backoff;
  while (!send_queue_.try_push(sw)) {
    if (aborting()) {
      delete sw;
      sends_pending_.fetch_sub(1, std::memory_order_release);
      return false;
    }
    if (!drain_one(scatter, can_apply)) backoff.pause();
  }
  return true;
}

void HostEngine::send_tail(int dst, std::uint32_t data_chunks,
                           std::uint32_t direct_count,
                           const ScatterFn& scatter, bool can_apply) {
  assert(data_chunks + 1 <= 0xFFFF);
  comm::ChunkHeader header;
  header.phase_id = ledger_.id();
  header.payload_bytes = 0;
  // Tails carry no records, so base_pos is free for the direct-write
  // ledger: how many direct puts the receiver must count from us before
  // this phase's stream is complete (DESIGN.md §15).
  header.base_pos = direct_count;
  header.chunk_idx = static_cast<std::uint16_t>(data_chunks & 0xFFFF);
  header.num_chunks = static_cast<std::uint16_t>(data_chunks + 1);
  header.format = static_cast<std::uint8_t>(comm::WireFormat::Raw);
  header.finalize();

  comm::BufferLease lease = backend_->acquire(dst, comm::kChunkHeaderBytes);
  std::memcpy(lease.data, &header, sizeof(header));
  dispatch_chunk(dst, lease, comm::kChunkHeaderBytes, scatter, can_apply);
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

bool HostEngine::next_message(comm::InMessage& out) {
  if (stash_.pop(ledger_.id(), out)) return true;
  if (backend_->thread_safe_recv()) return backend_->try_recv(out);
  if (auto m = recv_queue_.try_pop()) {
    out = std::move(**m);
    delete *m;
    return true;
  }
  return false;
}

void HostEngine::run_slice(const ApplySlice& slice) {
  ApplyJob* job = slice.job;
  if (telemetry::enabled() && job->header.trace_id != 0) {
    char hbuf[64];
    std::snprintf(hbuf, sizeof(hbuf),
                  "{\"src\":%d,\"rec_lo\":%u,\"rec_hi\":%u}", job->msg.src,
                  slice.rec_lo, slice.rec_hi);
    telemetry::hop("apply", static_cast<std::uint32_t>(graph_.host_id),
                   job->header.trace_id, job->header.trace_hop, hbuf);
  }
  {
    telemetry::Span apply_span("abelian", "apply", graph_.host_id);
    const rt::Timer timer;
    if (!(*job->scatter)(job->msg.src, job->header, job->msg.payload(),
                         slice.rec_lo, slice.rec_hi))
      job->rejected.store(true, std::memory_order_relaxed);
    stats_.apply_ns.fetch_add(timer.elapsed_ns(), std::memory_order_relaxed);
  }
  if (job->slices_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last slice settles the chunk exactly once: one reject count however
    // many slices failed, one release, then the completion accounting (the
    // apply-before-note_chunk order is what makes phase completion imply
    // an empty apply queue).
    if (job->rejected.load(std::memory_order_relaxed))
      stats_.decode_rejects.fetch_add(1, std::memory_order_relaxed);
    if (job->msg.release) job->msg.release();
    if (job->is_direct)
      ledger_.note_direct(job->msg.src);
    else
      ledger_.note_chunk(job->msg.src, job->header);
    delete job;
  }
}

bool HostEngine::aborting() const noexcept {
  return cluster_.membership().failure_pending();
}

void HostEngine::abort_slice(const ApplySlice& slice) {
  ApplyJob* job = slice.job;
  if (job != nullptr &&
      job->slices_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    if (job->msg.release) job->msg.release();
    delete job;
  }
}

void HostEngine::push_slice(const ApplySlice& slice, bool can_apply) {
  rt::Backoff backoff;
  while (!apply_queue_.try_push(slice)) {
    if (aborting()) {
      abort_slice(slice);
      return;
    }
    // Queue full. An apply worker makes room by running a slice itself
    // (never its own job's - slices_left is pre-charged, so the job cannot
    // settle before every slice is pushed); a pump-only thread waits for
    // the workers to catch up.
    if (can_apply) {
      if (auto s = apply_queue_.try_pop()) {
        run_slice(*s);
        backoff.reset();
        continue;
      }
    }
    backoff.pause();
  }
}

void HostEngine::enqueue_apply(comm::InMessage&& msg,
                               const comm::ChunkHeader& header,
                               const ScatterFn& scatter, bool can_apply,
                               bool is_direct) {
  std::uint32_t nslices = 1;
  std::uint32_t records = 0;
  if (apply_workers_ > 1 && cfg_.apply_slice_records > 0) {
    const auto info = comm::chunk_slice_info(header, phase_value_bytes_);
    if (info.sliceable && info.records >= 2 * cfg_.apply_slice_records) {
      records = info.records;
      const std::uint32_t want =
          (records + cfg_.apply_slice_records - 1) / cfg_.apply_slice_records;
      nslices = std::min(want, static_cast<std::uint32_t>(apply_workers_));
    }
  }
  auto* job = new ApplyJob;
  job->msg = std::move(msg);
  job->header = header;
  job->scatter = &scatter;
  job->is_direct = is_direct;
  job->slices_left.store(nslices, std::memory_order_relaxed);
  if (nslices == 1) {
    push_slice(ApplySlice{job, 0, kAllChunkRecords}, can_apply);
    return;
  }
  const std::uint32_t per = (records + nslices - 1) / nslices;
  for (std::uint32_t i = 0; i < nslices; ++i)
    push_slice(ApplySlice{job, i * per, std::min(records, (i + 1) * per)},
               can_apply);
}

void HostEngine::handle_direct_signal(const comm::DirectSignal& sig,
                                      const ScatterFn& scatter,
                                      bool can_apply) {
  const std::uint32_t current = ledger_.id();
  if (sig.phase_id != current) {
    // A put for a later phase landed early. Its region is a different
    // (pattern, src) slot than anything the current phase reads, so the
    // payload sits untouched; stash just the notification (or drop a stale
    // one, counted as direct_stale).
    stash_.park(sig, current);
    return;
  }
  comm::InMessage msg;
  comm::ChunkHeader header;
  switch (landing_.land(sig, phase_pattern_key_, msg, header)) {
    case comm::LandingRegions::Verdict::Stale:
      // Belongs to no current tail ledger, so dropping it uncounted cannot
      // stall completion.
      stats_.direct_stale.fetch_add(1, std::memory_order_relaxed);
      return;
    case comm::LandingRegions::Verdict::Garbled:
      stats_.decode_rejects.fetch_add(1, std::memory_order_relaxed);
      ledger_.note_direct(sig.src);
      return;
    case comm::LandingRegions::Verdict::Accept:
      enqueue_apply(std::move(msg), header, scatter, can_apply,
                    /*is_direct=*/true);
      return;
  }
}

bool HostEngine::drain_one(const ScatterFn& scatter, bool can_apply) {
  if (can_apply) {
    if (auto s = apply_queue_.try_pop()) {
      run_slice(*s);
      return true;
    }
  }
  comm::DirectSignal sig;
  if (stash_.pop(ledger_.id(), sig) || backend_->poll_direct(sig)) {
    handle_direct_signal(sig, scatter, can_apply);
    return true;
  }
  comm::InMessage msg;
  if (!next_message(msg)) return false;
  if (msg.size < comm::kChunkHeaderBytes) {
    stats_.decode_rejects.fetch_add(1, std::memory_order_relaxed);
    if (msg.release) msg.release();
    return true;
  }
  const comm::ChunkHeader header = msg.header();
  if (!header.valid() || msg.payload_size() < header.payload_bytes) {
    // Garbage frame (fuzzed tag, truncated payload): drop without counting
    // it toward phase completion - a real peer chunk never fails valid().
    stats_.decode_rejects.fetch_add(1, std::memory_order_relaxed);
    if (msg.release) msg.release();
    return true;
  }
  if (header.phase_id != ledger_.id()) {
    // A peer already raced ahead into a later phase; keep for later
    // (bounded) or drop a stale/fuzzed id.
    stash_.park(std::move(msg), header.phase_id, ledger_.id());
    return true;
  }
  if (header.payload_bytes == 0) {
    // Tail or clean single-chunk message: nothing to apply.
    if (msg.release) msg.release();
    ledger_.note_chunk(msg.src, header);
    return true;
  }
  if (telemetry::enabled() && header.trace_id != 0) {
    char hbuf[64];
    std::snprintf(hbuf, sizeof(hbuf),
                  "{\"src\":%d,\"base_pos\":%u,\"bytes\":%u}", msg.src,
                  header.base_pos, header.payload_bytes);
    telemetry::hop("decode", static_cast<std::uint32_t>(graph_.host_id),
                   header.trace_id, header.trace_hop, hbuf);
  }
  enqueue_apply(std::move(msg), header, scatter, can_apply);
  return true;
}

// ---------------------------------------------------------------------------
// Direct-write path (DESIGN.md §15)
// ---------------------------------------------------------------------------

bool HostEngine::try_direct_put(int dst, const comm::DirectRegion& region,
                                comm::BufferLease& lease, std::size_t bytes,
                                std::uint32_t phase_id,
                                std::uint32_t pattern_key,
                                const ScatterFn& scatter, bool can_apply) {
  if (backend_->thread_safe_send()) {
    rt::Backoff backoff;
    for (;;) {
      const auto st = backend_->direct_put(dst, region, lease.data, bytes,
                                           phase_id, pattern_key);
      if (st == comm::DirectPutStatus::Ok) return true;
      if (st == comm::DirectPutStatus::Unavailable || aborting())
        return false;
      // Transient exhaustion: relieve it by scattering, then retry.
      if (!drain_one(scatter, can_apply)) backoff.pause();
    }
  }
  // FUNNELED backend: route the put through the comm thread. Only taken
  // when the put cannot hard-fail (capacity was pre-checked against the
  // region and the emulation never soft-fails), so queued == sent and the
  // direct count announced in the tail stays truthful.
  return queue_send(
      new SendWork{dst, std::exchange(lease, comm::BufferLease{}), bytes,
                   /*direct=*/true, region, phase_id, pattern_key},
      scatter, can_apply);
}

// ---------------------------------------------------------------------------
// Phase driver
// ---------------------------------------------------------------------------

void HostEngine::execute_phase(std::uint32_t pattern, std::size_t rec_bytes,
                               const graph::CompressedPlan& send_plan,
                               const graph::CompressedPlan& recv_plan,
                               const GatherFn& gather,
                               const ScatterFn& scatter) {
  // The span and the timer cover the same interval: summed sync_phase span
  // time per host must agree with stats_.comm_s (bench_fig6 asserts this).
  telemetry::Span phase_span("abelian", "sync_phase", graph_.host_id);
  rt::Timer phase_timer;
  const int p = graph_.num_hosts;
  const int me = graph_.host_id;

  comm::PhaseSpec spec;
  spec.phase_id = phase_counter_++;
  spec.pattern_key =
      (pattern << 16) | static_cast<std::uint32_t>(rec_bytes & 0xFFFF);
  spec.max_send_bytes.assign(static_cast<std::size_t>(p), 0);
  spec.max_recv_bytes.assign(static_cast<std::size_t>(p), 0);
  for (int r = 0; r < p; ++r) {
    if (r == me) continue;
    const auto rs = static_cast<std::size_t>(r);
    if (!send_plan.empty(r)) {
      spec.send_to.push_back(r);
      spec.max_send_bytes[rs] =
          comm::kChunkHeaderBytes + send_plan.size(r) * rec_bytes;
    }
    if (!recv_plan.empty(r)) {
      spec.recv_from.push_back(r);
      spec.max_recv_bytes[rs] =
          comm::kChunkHeaderBytes + recv_plan.size(r) * rec_bytes;
    }
  }

  const std::uint64_t bytes_before =
      stats_.bytes_sent.load(std::memory_order_relaxed);
  ledger_.arm(spec.phase_id, p, spec.recv_from.size());
  // Record layout for the apply-slice splitter (records are [u32 pos][T]).
  phase_value_bytes_ =
      rec_bytes > sizeof(std::uint32_t) ? rec_bytes - sizeof(std::uint32_t)
                                        : 0;
  phase_pattern_key_ = spec.pattern_key;
  const bool direct_capable =
      cfg_.direct_write != comm::DirectWriteMode::Off &&
      backend_->supports_direct_write();
  if (direct_capable) {
    for (const int src : spec.recv_from) {
      // Sized so the whole list fits in ANY wire format: worst-case sparse
      // records plus the dense bitmap (Forced mode direct-puts sparse
      // rounds).
      const std::size_t span = recv_plan.size(src);
      landing_.ensure(*backend_, spec.pattern_key, src,
                      comm::kChunkHeaderBytes + span * rec_bytes +
                          (span + 7) / 8);
    }
  }
  stats_.apply_threads.store(apply_workers_, std::memory_order_relaxed);
  stash_.purge(ledger_.id());
  post_cmd(Cmd::BeginPhase, &spec);

  // Work decomposition: each peer's shared list is split into ranges that
  // fit one chunk even at worst-case (all-dirty sparse) encoding; the dense
  // and varint encodings are never larger, so every range fits its lease.
  // RMA (chunk_bytes() == 0) keeps exactly one whole-list message per peer:
  // its windows hold one put per peer per phase.
  const std::size_t chunk_cap = backend_->chunk_bytes();
  const bool single_chunk = chunk_cap == 0;
  const std::size_t payload_cap = chunk_cap > comm::kChunkHeaderBytes
                                      ? chunk_cap - comm::kChunkHeaderBytes
                                      : 1024;
  const std::size_t span_cap =
      std::max<std::size_t>(1, payload_cap / std::max<std::size_t>(
                                                 rec_bytes, 1));

  const std::size_t num_peers = spec.send_to.size();

  // Direct-write plan: per peer, resolve the published region and decide
  // the transport up front. Auto mode predicts density from the previous
  // stream to the same (pattern, peer); a mispredict only changes the
  // transport (the direct frame carries whatever format the encoder
  // picks), never correctness.
  struct DirectPlan {
    comm::DirectRegion region;
    bool use = false;
    char* prior = nullptr;  // density-predictor slot for this peer
  };
  std::vector<DirectPlan> direct_plan(num_peers);
  if (direct_capable) {
    const bool forced = cfg_.direct_write == comm::DirectWriteMode::Forced;
    for (std::size_t i = 0; i < num_peers; ++i) {
      const int dst = spec.send_to[i];
      char& prior = dense_prior_.emplace(direct_key(spec.pattern_key, dst),
                                         char{0})
                        .first->second;
      direct_plan[i].prior = &prior;
      if (!forced && prior == 0) continue;  // Auto: predicted sparse
      comm::DirectRegion region;
      if (!cluster_.direct_directory().lookup(dst, me, spec.pattern_key,
                                              region))
        continue;  // not published yet: this round stays two-sided
      direct_plan[i].region = region;
      direct_plan[i].use = true;
    }
  }

  std::vector<std::size_t> range_offset(num_peers + 1, 0);
  for (std::size_t i = 0; i < num_peers; ++i) {
    const std::size_t list_size = send_plan.size(spec.send_to[i]);
    const std::size_t ranges =
        (single_chunk || direct_plan[i].use)
            ? 1
            : std::max<std::size_t>(1,
                                    (list_size + span_cap - 1) / span_cap);
    range_offset[i + 1] = range_offset[i] + ranges;
  }
  const std::size_t total_ranges = range_offset[num_peers];

  struct PeerProgress {
    std::atomic<std::uint32_t> ranges_left{0};
    std::atomic<std::uint32_t> chunks_sent{0};
    std::atomic<std::uint32_t> directs_sent{0};
    std::atomic<std::uint32_t> dense_chunks{0};
  };
  std::vector<PeerProgress> peer_progress(num_peers);
  for (std::size_t i = 0; i < num_peers; ++i)
    peer_progress[i].ranges_left.store(
        static_cast<std::uint32_t>(range_offset[i + 1] - range_offset[i]),
        std::memory_order_relaxed);

  std::atomic<std::size_t> next_item{0};
  std::atomic<std::size_t> work_left{total_ranges};

  // Format bookkeeping shared by the two-sided, direct and fallback paths.
  const auto note_format = [&](std::size_t pi, const comm::EncodedChunk& e) {
    switch (e.format) {
      case comm::WireFormat::Varint:
        stats_.fmt_varint.fetch_add(1, std::memory_order_relaxed);
        break;
      case comm::WireFormat::Dense:
        stats_.fmt_dense.fetch_add(1, std::memory_order_relaxed);
        peer_progress[pi].dense_chunks.fetch_add(1,
                                                 std::memory_order_relaxed);
        break;
      default:
        stats_.fmt_sparse.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    const std::size_t sparse_worst = e.records * rec_bytes;
    if (e.bytes < sparse_worst)
      stats_.bytes_saved.fetch_add(sparse_worst - e.bytes,
                                   std::memory_order_relaxed);
  };

  // Frames encoded range [base, base + span) for `dst` at the front of
  // `lease` - the header of the two-sided data chunk, the direct frame and
  // the fallback re-gather chunk alike. The causal-trace sampling decision
  // is deterministic in (host, phase, range, dst), so a seeded re-run
  // samples the same messages; the destination salt keeps chunks that cover
  // the same range for two peers on distinct trace ids. finalize() comes
  // last: the self-check covers the trace fields.
  const auto frame = [&](comm::BufferLease& lease, int dst,
                         const comm::EncodedChunk& e, std::uint32_t base,
                         std::uint32_t span, std::size_t idx,
                         std::uint16_t num_chunks) {
    comm::ChunkHeader h;
    h.phase_id = spec.phase_id;
    h.payload_bytes = static_cast<std::uint32_t>(e.bytes);
    h.base_pos = base;
    h.span = span;
    h.chunk_idx = static_cast<std::uint16_t>(idx & 0xFFFF);
    h.num_chunks = num_chunks;
    h.format = static_cast<std::uint8_t>(e.format);
    if (e.format == comm::WireFormat::Dense && e.all_set)
      h.flags |= comm::kFlagDenseFull;
    h.trace_id = telemetry::sample_trace_id(static_cast<std::uint32_t>(me),
                                            spec.phase_id, base,
                                            static_cast<std::uint32_t>(dst));
    h.finalize();
    std::memcpy(lease.data, &h, sizeof(h));
    return h;
  };

  team_->run([&](std::size_t tid) {
    // Threads below the apply-worker count run received-chunk applies
    // whenever they touch the receive side; the rest only pump messages
    // (apply_workers == 1 reproduces the serial apply path exactly).
    const bool can_apply = tid < apply_workers_;
    // Stage 1: range-parallel gather. Each range is encoded directly into
    // an independent leased send buffer (records are position-indexed and
    // order-free), so serialization scales with the compute team instead of
    // pinning one thread.
    for (;;) {
      const std::size_t r = next_item.fetch_add(1, std::memory_order_relaxed);
      if (r >= total_ranges) break;
      std::size_t pi = 0;
      while (r >= range_offset[pi + 1]) ++pi;
      const int dst = spec.send_to[pi];
      const bool direct_this = direct_plan[pi].use;
      const std::size_t list_size = send_plan.size(dst);
      const auto lo = static_cast<std::uint32_t>(
          (single_chunk || direct_this) ? 0
                                        : (r - range_offset[pi]) * span_cap);
      const auto hi = static_cast<std::uint32_t>(
          (single_chunk || direct_this)
              ? list_size
              : std::min<std::size_t>(list_size, lo + span_cap));

      comm::BufferLease lease;
      const ReserveFn reserve = [&](std::size_t need) -> std::byte* {
        const std::size_t total = comm::kChunkHeaderBytes + need;
        // Direct frames are staged on the heap: direct_put snapshots the
        // payload, so no backend buffer is involved.
        lease = direct_this ? comm::BufferLease::on_heap(total)
                            : backend_->acquire(dst, total);
        return lease.data + comm::kChunkHeaderBytes;
      };

      comm::EncodedChunk enc;
      {
        telemetry::Span gather_span("abelian", "gather", me);
        const rt::Timer timer;
        enc = gather(dst, lo, hi, reserve);
        auto& bucket = direct_this ? stats_.direct_ns : stats_.gather_ns;
        bucket.fetch_add(timer.elapsed_ns(), std::memory_order_relaxed);
      }

      PeerProgress& pp = peer_progress[pi];
      if (direct_this) {
        // Direct-write transport: the whole-list frame mirrors into the
        // peer's registered region with one put; completion travels as a
        // counted signal, and the tail announces the count.
        if (enc.records > 0) {
          // num_chunks 0: accounted via note_direct, not the tail.
          frame(lease, dst, enc, 0, hi, 0, 0);
          const std::size_t total = comm::kChunkHeaderBytes + enc.bytes;
          bool sent_direct = false;
          if (total <= direct_plan[pi].region.capacity) {
            telemetry::Span put_span("abelian", "direct_put", me);
            const rt::Timer timer;
            sent_direct =
                try_direct_put(dst, direct_plan[pi].region, lease, total,
                               spec.phase_id, spec.pattern_key, scatter,
                               can_apply);
            stats_.direct_ns.fetch_add(timer.elapsed_ns(),
                                       std::memory_order_relaxed);
          }
          if (sent_direct) {
            pp.directs_sent.store(1, std::memory_order_release);
            stats_.direct_sends.fetch_add(1, std::memory_order_relaxed);
            stats_.direct_bytes.fetch_add(total, std::memory_order_relaxed);
            stats_.messages_sent.fetch_add(1, std::memory_order_relaxed);
            stats_.bytes_sent.fetch_add(total, std::memory_order_relaxed);
            note_format(pi, enc);
          } else if (!aborting()) {
            // Two-sided fallback (stale rkey after a revive, oversized
            // frame). The receiver's ledger is untouched: everything below
            // is counted by note_chunk and the tail.
            stats_.direct_fallbacks.fetch_add(1, std::memory_order_relaxed);
            if (single_chunk) {
              frame(lease, dst, enc, 0, hi, 0, 1);
              telemetry::Span send_span("abelian", "send", me);
              dispatch_chunk(dst, lease, total, scatter, can_apply);
              pp.chunks_sent.fetch_add(1, std::memory_order_release);
              note_format(pi, enc);
            } else {
              // Streaming backend: the whole-list staging may exceed the
              // chunk cap, so re-gather in chunk-sized ranges through the
              // regular two-sided path (rare - a revive window).
              backend_->abandon(lease);
              for (std::size_t flo = 0; flo < list_size; flo += span_cap) {
                const auto sub_lo = static_cast<std::uint32_t>(flo);
                const auto sub_hi = static_cast<std::uint32_t>(
                    std::min<std::size_t>(list_size, flo + span_cap));
                comm::BufferLease sub;
                const ReserveFn sub_reserve =
                    [&](std::size_t need) -> std::byte* {
                  sub = backend_->acquire(dst, comm::kChunkHeaderBytes + need);
                  return sub.data + comm::kChunkHeaderBytes;
                };
                comm::EncodedChunk senc;
                {
                  const rt::Timer timer;
                  senc = gather(dst, sub_lo, sub_hi, sub_reserve);
                  stats_.gather_ns.fetch_add(timer.elapsed_ns(),
                                             std::memory_order_relaxed);
                }
                if (senc.records == 0) {
                  backend_->abandon(sub);
                  continue;
                }
                frame(sub, dst, senc, sub_lo, sub_hi - sub_lo,
                      pp.chunks_sent.load(std::memory_order_relaxed), 0);
                telemetry::Span send_span("abelian", "send", me);
                dispatch_chunk(dst, sub, comm::kChunkHeaderBytes + senc.bytes,
                               scatter, can_apply);
                pp.chunks_sent.fetch_add(1, std::memory_order_release);
                note_format(pi, senc);
              }
            }
          }
        }
        backend_->abandon(lease);  // heap staging the put did not consume
      } else if (enc.records > 0 || single_chunk) {
        if (!lease) reserve(0);  // clean single-chunk message: header only
        const comm::ChunkHeader header =
            frame(lease, dst, enc, lo, hi - lo, r - range_offset[pi],
                  single_chunk ? 1 : 0);
        if (telemetry::enabled() && header.trace_id != 0) {
          char hbuf[80];
          std::snprintf(hbuf, sizeof(hbuf),
                        "{\"dst\":%d,\"base_pos\":%u,\"bytes\":%u}", dst, lo,
                        header.payload_bytes);
          telemetry::hop("encode", static_cast<std::uint32_t>(me),
                         header.trace_id, 0, hbuf);
        }
        {
          telemetry::Span send_span("abelian", "send", me);
          dispatch_chunk(dst, lease, comm::kChunkHeaderBytes + enc.bytes,
                         scatter, can_apply);
        }
        pp.chunks_sent.fetch_add(1, std::memory_order_release);
        note_format(pi, enc);
      } else {
        backend_->abandon(lease);  // clean range: nothing to send
      }

      if (pp.ranges_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Last range for this peer: every chunks_sent increment happened
        // before its release decrement, so the acquire load sees the total.
        const std::uint32_t directs =
            pp.directs_sent.load(std::memory_order_acquire);
        if (!single_chunk) {
          send_tail(dst, pp.chunks_sent.load(std::memory_order_acquire),
                    directs, scatter, can_apply);
        } else if (direct_this &&
                   pp.chunks_sent.load(std::memory_order_acquire) == 0) {
          // Single-message backend on the direct path: the peer still
          // expects its one window message - send the tail as that message
          // so it carries the direct count (0 when nothing was dirty).
          send_tail(dst, 0, directs, scatter, can_apply);
        }
        // Commit the density predictor for the next round to this peer.
        if (direct_plan[pi].prior != nullptr)
          *direct_plan[pi].prior =
              pp.dense_chunks.load(std::memory_order_relaxed) != 0 ? 1 : 0;
      }
      work_left.fetch_sub(1, std::memory_order_acq_rel);
    }

    // Thread 0 flushes once every send of the phase has been handed over.
    if (tid == 0) {
      telemetry::Span flush_span("abelian", "flush", me);
      rt::Backoff backoff;
      while (work_left.load(std::memory_order_acquire) != 0 ||
             sends_pending_.load(std::memory_order_acquire) != 0) {
        if (aborting()) break;
        if (!drain_one(scatter, can_apply)) backoff.pause();
      }
      post_cmd(Cmd::Flush, nullptr);
    }

    // Stage 2: every thread turns into a receive-side worker until the
    // phase completes - apply workers pop decode/apply slices off the work
    // queue (and pump when it is empty); the rest keep the transport
    // drained and feed the queue.
    telemetry::Span recv_span("abelian", "recv", me);
    rt::Backoff backoff;
    while (!ledger_.complete()) {
      // A dead peer's chunks never arrive: unwind instead of spinning. The
      // host-main driver raises the failure at its next round boundary.
      if (aborting()) break;
      if (drain_one(scatter, can_apply))
        backoff.reset();
      else
        backoff.pause();
    }
  });

  post_cmd(Cmd::EndPhase, nullptr);
  const double phase_s = phase_timer.elapsed_s();
  stats_.comm_s += phase_s;
  stats_.phases++;
  // Health-monitor report: one sample per host per phase, piggybacked on
  // the phase completion the engine just synchronized on.
  cluster_.health().note_phase(
      static_cast<std::uint32_t>(me), spec.phase_id,
      static_cast<std::uint64_t>(phase_s * 1e9),
      stats_.bytes_sent.load(std::memory_order_relaxed) - bytes_before);
}

}  // namespace lcr::abelian
