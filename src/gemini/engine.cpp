#include "gemini/engine.hpp"

#include <cassert>
#include <cmath>
#include <mutex>

#include "comm/mpi_multi_backend.hpp"
#include "runtime/cpu_relax.hpp"

namespace lcr::gemini {

const char* to_string(CommKind k) {
  switch (k) {
    case CommKind::Lci: return "lci";
    case CommKind::MpiProbeMulti: return "mpi-probe";
  }
  return "?";
}

GeminiHost::GeminiHost(abelian::Cluster& cluster, const graph::DistGraph& g,
                       GeminiConfig cfg)
    : cluster_(cluster),
      g_(g),
      cfg_(cfg),
      landing_(cluster.direct_directory(), g.host_id, cfg.tracker) {
  assert(g.policy == graph::PartitionPolicy::BlockedEdgeCut &&
         "Gemini requires a blocked edge-cut partition");
  comm::BackendOptions opt;
  opt.tracker = cfg_.tracker;
  opt.mpi_personality = cfg_.mpi_personality;
  switch (cfg_.comm) {
    case CommKind::Lci:
      backend_ = comm::make_backend(comm::BackendKind::Lci, cluster.fabric(),
                                    g.host_id, opt);
      break;
    case CommKind::MpiProbeMulti:
      // Callers: every compute thread plus the server thread.
      backend_ = std::make_unique<comm::MpiMultiBackend>(
          cluster.fabric(), g.host_id, opt, cfg_.compute_threads + 1);
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
      {"gemini.stash_drops", &stats_.stash_drops},
      {"gemini.decode_rejects", &stats_.decode_rejects},
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
      backend_->supports_direct_write()) {
    const std::size_t cap =
        comm::kChunkHeaderBytes +
        g_.num_masters * (sizeof(graph::VertexId) + sizeof(double));
    for (int src = 0; src < g.num_hosts; ++src)
      if (src != g.host_id)
        landing_.ensure(*backend_, kGeminiPatternKey, src, cap);
    direct_enabled_ = true;
  }
  server_thread_ = rt::AuxThread([this] {
    rt::Backoff backoff;
    while (!stop_.load(std::memory_order_acquire)) {
      backend_->progress();
      backoff.pause();
    }
  });
}

GeminiHost::~GeminiHost() {
  stop_.store(true, std::memory_order_release);
  if (server_thread_.joinable()) server_thread_.join();
  // Defensive: round completion implies the apply queue drained (chunks are
  // applied before note_chunk), so this only fires after an aborted round.
  while (auto m = apply_queue_.try_pop()) {
    if ((*m)->release) (*m)->release();
    delete *m;
  }
  // Stashed chunks are copies (no comm resources); the landing regions
  // retract, unregister, quiesce the backend and only then free.
  landing_.close(backend_);
}

std::vector<double> GeminiHost::run_pagerank(apps::PagerankOptions opt,
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

  // Per-iteration transients (accum, contrib, partial, touched) are rebuilt
  // every round, so the checkpoint is just the master rank vector.
  apps::RoundLoop loop(cluster_, g_.host_id, "gemini", stats_.compute_s, rec);
  loop.persist(rank);
  const auto step = [&] {
    loop.compute([&] {
      apps::pull_rank_contributions(*team_, g_.in_edges, g_.global_out_degree,
                                    rank, contrib, partial, touched);
    });

    // Pagerank is dense every round (DESIGN.md §15).
    send_dense<double>(touched, partial, apply);

    double local_delta = 0.0;
    for (std::size_t i = 0; i < n_masters; ++i) {
      const double next =
          (1.0 - opt.damping) / n_global + opt.damping * accum[i];
      local_delta += std::abs(next - rank[i]);
      rank[i] = next;
      accum[i] = 0.0;
    }
    return local_delta;
  };
  loop.run(opt.max_iterations, step,
           [&](double global_delta) { return opt.converged(global_delta); });
  return rank;
}

}  // namespace lcr::gemini
