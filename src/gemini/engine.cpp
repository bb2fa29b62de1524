#include "gemini/engine.hpp"

#include <cassert>
#include <cmath>
#include <mutex>

#include "apps/pagerank_pull.hpp"
#include "comm/lci_backend.hpp"
#include "mpilite/comm.hpp"
#include "mpilite/personality.hpp"
#include "runtime/cpu_relax.hpp"

namespace lcr::gemini {

const char* to_string(CommKind k) {
  switch (k) {
    case CommKind::Lci: return "lci";
    case CommKind::MpiProbeMulti: return "mpi-probe";
  }
  return "?";
}

comm::BufferLease GeminiComm::acquire(int /*dst*/, std::size_t max_bytes) {
  comm::BufferLease lease;
  lease.heap.resize(max_bytes);
  lease.data = lease.heap.data();
  lease.capacity = max_bytes;
  return lease;
}

bool GeminiComm::commit(int dst, comm::BufferLease& lease,
                        std::size_t bytes) {
  // Shrink-only; regrowing would value-initialize over serialized records.
  if (lease.heap.size() != bytes) lease.heap.resize(bytes);
  if (!try_send(dst, lease.heap)) return false;
  lease = comm::BufferLease{};
  return true;
}

void GeminiComm::abandon(comm::BufferLease& lease) {
  lease = comm::BufferLease{};
}

namespace {

constexpr int kTag = 11;

/// LCI shim: wraps the Abelian LCI backend, which is already thread-safe
/// send_enq/recv_deq over the Queue.
class GeminiLciComm final : public GeminiComm {
 public:
  GeminiLciComm(fabric::Fabric& fabric, int rank, rt::MemTracker* tracker,
                std::size_t lanes, std::size_t servers) {
    comm::BackendOptions opt;
    opt.tracker = tracker;
    opt.lci_lanes = lanes;
    opt.lci_servers = servers;
    backend_ = std::make_unique<comm::LciBackend>(fabric, rank, opt);
  }
  const char* name() const override { return "lci"; }
  bool try_send(int dst, std::vector<std::byte>& payload) override {
    return backend_->try_send(dst, payload);
  }
  comm::BufferLease acquire(int dst, std::size_t max_bytes) override {
    return backend_->acquire(dst, max_bytes);
  }
  bool commit(int dst, comm::BufferLease& lease, std::size_t bytes) override {
    return backend_->commit(dst, lease, bytes);
  }
  void abandon(comm::BufferLease& lease) override {
    backend_->abandon(lease);
  }
  std::size_t preferred_chunk() const override {
    return backend_->chunk_bytes();
  }
  bool try_recv(comm::InMessage& out) override {
    if (backend_->try_recv(out)) return true;
    // Nothing pending: lend this thread to the server for one progress
    // step. On the paper's clusters the LCI server owns a core and this
    // never helps; on this simulation's single-core hosts the polling
    // thread would otherwise just spin waiting for the server to be
    // scheduled. Queue::progress is thread-safe here.
    backend_->progress();
    return backend_->try_recv(out);
  }
  void progress() override { backend_->progress(); }

  // Direct-write (DESIGN.md §15): delegate to the wrapped backend's
  // registered-region put path. LciBackend is thread-safe throughout.
  bool supports_direct_write() const override {
    return backend_->supports_direct_write();
  }
  comm::DirectRegion register_direct_region(int src, std::byte* base,
                                            std::size_t bytes,
                                            std::uint32_t gen) override {
    return backend_->register_direct_region(src, base, bytes, gen);
  }
  void release_direct_region(int src,
                             const comm::DirectRegion& region) override {
    backend_->release_direct_region(src, region);
  }
  comm::DirectPutStatus direct_put(int dst, const comm::DirectRegion& r,
                                   const void* payload, std::size_t bytes,
                                   std::uint32_t phase_id,
                                   std::uint32_t pattern_key) override {
    return backend_->direct_put(dst, r, payload, bytes, phase_id,
                                pattern_key);
  }
  bool poll_direct(comm::DirectSignal& out) override {
    return backend_->poll_direct(out);
  }

 private:
  std::unique_ptr<comm::LciBackend> backend_;
};

/// MPI shim under MPI_THREAD_MULTIPLE: every compute thread isends its own
/// chunks and probes with wildcards; probe+recv pairs are serialized by a
/// lock (the race real codes avoid by funnelling receives into one thread).
class GeminiMpiComm final : public GeminiComm {
 public:
  GeminiMpiComm(fabric::Fabric& fabric, int rank,
                const std::string& personality, rt::MemTracker* tracker,
                std::size_t num_threads)
      : comm_(fabric, rank, personality_by_name(personality),
              mpi::ThreadLevel::Multiple,
              mpi::CommConfig{fabric.config().default_rx_buffers, nullptr,
                              /*declared_concurrency=*/num_threads + 1}),
        tracker_(tracker) {}

  const char* name() const override { return "mpi-probe"; }

  bool try_send(int dst, std::vector<std::byte>& payload) override {
    mpi::Request req = comm_.isend(payload.data(), payload.size(), dst, kTag);
    if (!comm_.test(req)) {
      // Rendezvous in flight: pin the buffer until completion.
      std::lock_guard<rt::Spinlock> guard(out_lock_);
      outstanding_.push_back(Outstanding{std::move(payload), std::move(req)});
    } else {
      if (tracker_ != nullptr) tracker_->on_free(payload.size());
      payload.clear();
    }
    reap();
    return true;  // MPI accepts everything (no back pressure)
  }

  bool try_recv(comm::InMessage& out) override {
    std::unique_lock<rt::Spinlock> guard(recv_lock_, std::try_to_lock);
    if (!guard.owns_lock()) return false;
    mpi::Status st;
    if (!comm_.iprobe(mpi::kAnySource, kTag, &st)) return false;
    // shared_ptr staging: the buffer is freed on every path, including when
    // the InMessage is destroyed without release() being called.
    auto buf = std::make_shared<std::vector<std::byte>>(st.size);
    comm_.recv(buf->data(), st.size, st.source, st.tag);
    guard.unlock();
    if (tracker_ != nullptr) tracker_->on_alloc(st.size);
    out.src = st.source;
    out.data = buf->data();
    out.size = buf->size();
    rt::MemTracker* tracker = tracker_;
    out.release = [buf, tracker] {
      if (tracker != nullptr) tracker->on_free(buf->size());
    };
    return true;
  }

  void progress() override {
    comm_.progress();
    reap();
  }

 private:
  struct Outstanding {
    std::vector<std::byte> payload;
    mpi::Request req;
  };

  static mpi::Personality personality_by_name(const std::string& name) {
    if (name == "intelmpi") return mpi::intelmpi_like();
    if (name == "mvapich") return mpi::mvapich_like();
    if (name == "openmpi") return mpi::openmpi_like();
    return mpi::default_personality();
  }

  void reap() {
    std::unique_lock<rt::Spinlock> guard(out_lock_, std::try_to_lock);
    if (!guard.owns_lock()) return;
    while (!outstanding_.empty() &&
           outstanding_.front().req->complete.load(
               std::memory_order_acquire)) {
      if (tracker_ != nullptr)
        tracker_->on_free(outstanding_.front().payload.size());
      outstanding_.pop_front();
    }
  }

  mpi::Comm comm_;
  rt::MemTracker* tracker_;
  rt::Spinlock recv_lock_;
  rt::Spinlock out_lock_;
  std::deque<Outstanding> outstanding_;
};

}  // namespace

GeminiHost::GeminiHost(abelian::Cluster& cluster, const graph::DistGraph& g,
                       GeminiConfig cfg)
    : cluster_(cluster), g_(g), cfg_(cfg) {
  assert(g.policy == graph::PartitionPolicy::BlockedEdgeCut &&
         "Gemini requires a blocked edge-cut partition");
  switch (cfg_.comm) {
    case CommKind::Lci:
      // Per-compute-thread injection lanes by default: every compute thread
      // injects on the gemini produce path (send_with_backpressure).
      comm_ = std::make_unique<GeminiLciComm>(
          cluster.fabric(), g.host_id, cfg_.tracker,
          cfg_.lci_lanes != 0 ? cfg_.lci_lanes : cfg_.compute_threads,
          cfg_.lci_servers);
      break;
    case CommKind::MpiProbeMulti:
      comm_ = std::make_unique<GeminiMpiComm>(
          cluster.fabric(), g.host_id, cfg_.mpi_personality, cfg_.tracker,
          cfg_.compute_threads);
      break;
  }
  stats_.graph_mem_bytes.store(g.mem_bytes(), std::memory_order_relaxed);
  stats_.graph_mem_bytes_uncompressed.store(g.mem_bytes_uncompressed(),
                                            std::memory_order_relaxed);
  stats_.graph_mirrors.store(g.num_local - g.num_masters,
                             std::memory_order_relaxed);
  stat_reg_ = cluster.fabric().telemetry().register_probes({
      {"gemini.messages", &stats_.messages},
      {"gemini.bytes", &stats_.bytes},
      {"gemini.direct_sends", &stats_.direct_sends},
      {"gemini.dense_rounds", &stats_.dense_rounds},
      {"gemini.sparse_rounds", &stats_.sparse_rounds},
      {"graph.mem_bytes", &stats_.graph_mem_bytes},
      {"graph.mem_bytes_uncompressed", &stats_.graph_mem_bytes_uncompressed},
      {"graph.mirrors", &stats_.graph_mirrors},
  });
  team_ = std::make_unique<rt::ThreadTeam>(cfg_.compute_threads);
  chunks_sent_.reserve(static_cast<std::size_t>(g.num_hosts));
  for (int h = 0; h < g.num_hosts; ++h)
    chunks_sent_.emplace_back(new std::atomic<std::uint32_t>(0));

  // Direct-write setup (DESIGN.md §15): one registered receive region per
  // source peer, sized for the worst dense frame a peer can send (one record
  // per master we own, value at most sizeof(double)). Published through the
  // cluster directory so peers can resolve it; a peer that starts its first
  // round before we registered simply misses the lookup and streams - the
  // two paths are interchangeable per (peer, round).
  cfg_.direct_write = comm::resolve_direct_write(cfg_.direct_write);
  direct_sent_.assign(static_cast<std::size_t>(g.num_hosts), 0);
  direct_skip_.assign(static_cast<std::size_t>(g.num_hosts), 0);
  if (cfg_.direct_write != comm::DirectWriteMode::Off &&
      comm_->supports_direct_write()) {
    direct_homes_.resize(static_cast<std::size_t>(g.num_hosts));
    const std::size_t cap =
        comm::kChunkHeaderBytes +
        g_.num_masters * (sizeof(graph::VertexId) + sizeof(double));
    for (int src = 0; src < g.num_hosts; ++src) {
      if (src == g.host_id) continue;
      DirectHome& home = direct_homes_[static_cast<std::size_t>(src)];
      home.buf = std::make_unique<std::byte[]>(cap);
      const std::uint32_t gen = cluster.direct_directory().next_generation();
      home.region =
          comm_->register_direct_region(src, home.buf.get(), cap, gen);
      if (!home.region.valid()) {
        home.buf.reset();
        continue;
      }
      if (cfg_.tracker != nullptr) cfg_.tracker->on_alloc(cap);
      cluster.direct_directory().publish(g.host_id, src, kGeminiPatternKey,
                                         home.region);
    }
    direct_enabled_ = true;
  }
  server_thread_ = rt::AuxThread([this] {
    rt::Backoff backoff;
    while (!stop_.load(std::memory_order_acquire)) {
      comm_->progress();
      backoff.pause();
    }
  });
}

GeminiHost::~GeminiHost() {
  stop_.store(true, std::memory_order_release);
  if (server_thread_.joinable()) server_thread_.join();
  // Retract published regions before tearing down the comm shim: once the
  // directory entry is gone peers fall back to streaming, and a straggler
  // put built against the old registration dies on the generation check of
  // whatever occupies the region's token next (generations never repeat).
  for (std::size_t src = 0; src < direct_homes_.size(); ++src) {
    DirectHome& home = direct_homes_[src];
    if (!home.region.valid()) continue;
    cluster_.direct_directory().retract(g_.host_id, static_cast<int>(src),
                                        kGeminiPatternKey,
                                        home.region.generation);
    comm_->release_direct_region(static_cast<int>(src), home.region);
    if (cfg_.tracker != nullptr) cfg_.tracker->on_free(home.region.capacity);
  }
  // Defensive: round completion implies the apply queue drained (chunks are
  // applied before note_chunk), so this only fires after an aborted round.
  while (auto m = apply_queue_.try_pop()) {
    if ((*m)->release) (*m)->release();
    delete *m;
  }
  // Next-round chunks stashed when a round aborted still hold live comm
  // resources; release them before the comm shim goes away.
  for (auto& m : stash_)
    if (m.release) m.release();
  stash_.clear();
  // The comm shim must quiesce before the region buffers are freed: a
  // retransmitted put already materialized in the endpoint's CQ still
  // references region memory until the shim's final pump, and comm_ is
  // declared before direct_homes_ so default member order would free the
  // buffers first.
  comm_.reset();
  direct_homes_.clear();
}

void GeminiHost::RoundState::arm(std::uint32_t id, int num_hosts) {
  std::lock_guard<rt::Spinlock> guard(lock);
  round_id = id;
  total.assign(static_cast<std::size_t>(num_hosts), -1);
  got.assign(static_cast<std::size_t>(num_hosts), 0);
  direct_expected.assign(static_cast<std::size_t>(num_hosts), 0);
  direct_got.assign(static_cast<std::size_t>(num_hosts), 0);
  finished.assign(static_cast<std::size_t>(num_hosts), 0);
  peers_remaining = static_cast<std::size_t>(num_hosts - 1);
  complete.store(peers_remaining == 0, std::memory_order_release);
}

void GeminiHost::RoundState::note_chunk(int src,
                                        const comm::ChunkHeader& header) {
  std::lock_guard<rt::Spinlock> guard(lock);
  const auto s = static_cast<std::size_t>(src);
  if (header.num_chunks != 0) {  // the tail carries the expected totals
    total[s] = static_cast<std::int32_t>(header.num_chunks);
    if (header.payload_bytes == 0)  // direct-put ledger rides in base_pos
      direct_expected[s] = static_cast<std::int32_t>(header.base_pos);
  }
  ++got[s];
  check_peer(s);
}

void GeminiHost::RoundState::note_direct(int src) {
  std::lock_guard<rt::Spinlock> guard(lock);
  const auto s = static_cast<std::size_t>(src);
  ++direct_got[s];
  check_peer(s);
}

void GeminiHost::RoundState::check_peer(std::size_t s) {
  if (finished[s] != 0 || total[s] < 0 || got[s] != total[s] ||
      direct_got[s] < direct_expected[s])
    return;
  finished[s] = 1;
  assert(peers_remaining > 0);
  if (--peers_remaining == 0)
    complete.store(true, std::memory_order_release);
}

void GeminiHost::send_with_backpressure(int dst,
                                        std::vector<std::byte>& payload,
                                        const std::function<bool()>& drain) {
  if (cfg_.tracker != nullptr) cfg_.tracker->on_alloc(payload.size());
  rt::Backoff backoff;
  while (!comm_->try_send(dst, payload)) {
    if (aborting()) {
      // Abandon the send; the phase is unwinding for recovery.
      if (cfg_.tracker != nullptr) cfg_.tracker->on_free(payload.size());
      return;
    }
    // Relieve back pressure by consuming incoming records; back off only
    // when the drain made no progress.
    if (drain())
      backoff.reset();
    else
      backoff.pause();
  }
}

std::vector<double> GeminiHost::run_pagerank(double damping,
                                             std::uint32_t max_iterations,
                                             double tolerance,
                                             rt::RecoveryCtx* rec) {
  const graph::VertexId mlo =
      g_.master_bounds[static_cast<std::size_t>(g_.host_id)];
  const std::size_t n_masters = g_.num_masters;
  const double n_global = static_cast<double>(g_.global_nodes);

  const std::size_t n_local = g_.num_local;
  std::vector<double> rank(n_masters, 1.0 / n_global);
  std::vector<double> accum(n_masters, 0.0);

  // Per-destination partial sums: pagerank is topology-driven (dense every
  // round), so contributions are always combined locally and each
  // destination is signalled once per round (Gemini's aggregated slot).
  // Every edge source is a local master, so each destination pulls from
  // masters' contributions; mirror contrib slots stay 0.0.
  std::vector<double> contrib(n_local, 0.0);
  std::vector<double> partial(n_local, 0.0);
  rt::ConcurrentBitset touched(n_local);

  std::function<void(graph::VertexId, const double&)> apply =
      [&](graph::VertexId gid, const double& value) {
        apps::atomic_add(accum[gid - mlo], value);
      };

  std::uint32_t iter = 0;
  std::uint32_t resumed_at = std::numeric_limits<std::uint32_t>::max();

  // Recovery: per-iteration transients (accum, contrib, partial, touched) are
  // rebuilt every round, so the checkpoint is just the master rank vector.
  if (rec != nullptr && rec->resume && rec->resume_round >= 0) {
    std::vector<std::vector<std::uint8_t>> arrays;
    if (rec->store->load(rec->host, rec->resume_round, arrays) &&
        arrays.size() == 1 && arrays[0].size() == n_masters * sizeof(double)) {
      if (n_masters > 0)
        std::memcpy(rank.data(), arrays[0].data(), arrays[0].size());
      iter = static_cast<std::uint32_t>(rec->resume_round);
      resumed_at = iter;
    }
  }

  for (; iter < max_iterations; ++iter) {
    cluster_.round_tick(g_.host_id, static_cast<std::int64_t>(iter));
    if (rec != nullptr && rec->interval > 0 &&
        iter % static_cast<std::uint32_t>(rec->interval) == 0 &&
        iter != resumed_at) {
      rec->store->save(rec->host, static_cast<std::int64_t>(iter),
                       {{rank.data(), n_masters * sizeof(double)}});
    }
    rt::Timer combine_timer;
    {
      telemetry::Span compute_span("gemini", "compute",
                                   static_cast<std::uint32_t>(g_.host_id));
      apps::pull_rank_contributions(*team_, g_.in_edges, g_.global_out_degree,
                                    rank, contrib, partial, touched);
    }
    stats_.compute_s += combine_timer.elapsed_s();

    // Pagerank is dense every round: the whole per-destination frame goes
    // out as one direct put when the peer's region resolves (DESIGN.md §15).
    direct_put_dense<double>(touched,
                             [&](std::size_t dst) { return partial[dst]; });
    std::atomic<std::size_t> cursor{0};
    stream_round<double>(
        [&](std::size_t, const std::function<void(graph::VertexId,
                                                  const double&)>& emit) {
          constexpr std::size_t kGrain = 512;
          for (;;) {
            const std::size_t lo =
                cursor.fetch_add(kGrain, std::memory_order_relaxed);
            if (lo >= n_local) break;
            const std::size_t hi = std::min(n_local, lo + kGrain);
            touched.for_each_in_range(lo, hi, [&](std::size_t dst) {
              const graph::VertexId gid =
                  g_.local_to_global(static_cast<graph::VertexId>(dst));
              const auto owner = static_cast<std::size_t>(g_.owner_of(gid));
              if (direct_skip_[owner] != 0) return;  // already put
              emit(gid, partial[dst]);
            });
          }
        },
        apply);

    double local_delta = 0.0;
    for (std::size_t i = 0; i < n_masters; ++i) {
      const double next = (1.0 - damping) / n_global + damping * accum[i];
      local_delta += std::abs(next - rank[i]);
      rank[i] = next;
      accum[i] = 0.0;
    }
    const double global_delta = cluster_.oob_allreduce_sum(local_delta);
    if (tolerance > 0.0 && global_delta < tolerance) break;
  }
  return rank;
}

}  // namespace lcr::gemini
