#include "apps/pagerank.hpp"

#include <cmath>
#include <mutex>

#include "abelian/sync.hpp"
#include "apps/atomic_ops.hpp"
#include "apps/round_loop.hpp"

namespace lcr::apps {

std::vector<double> run_pagerank(abelian::HostEngine& eng,
                                 PagerankOptions opt, rt::RecoveryCtx* rec) {
  const graph::DistGraph& g = eng.graph();
  const std::size_t n_local = g.num_local;
  const double n_global = static_cast<double>(g.global_nodes);

  std::vector<double> rank(n_local, 1.0 / n_global);
  std::vector<double> contrib(n_local, 0.0);
  std::vector<double> accum(n_local, 0.0);
  rt::ConcurrentBitset dirty(n_local);
  rt::ConcurrentBitset rank_dirty(n_local);

  const abelian::SyncPlan plan = abelian::plan_accumulate(g.policy);

  // The per-iteration transient state (contrib, accum, dirty sets) is
  // rebuilt every round, so the checkpoint is just the rank vector.
  RoundLoop loop(eng.cluster(), g.host_id, "app", eng.stats().compute_s, rec);
  loop.persist(rank);
  const auto step = [&] {
    // --- Computation: every local vertex pulls its in-neighbors'
    // contributions into its own accumulator (single writer per slot) ---
    loop.compute([&] {
      pull_rank_contributions(eng.team(), g.in_edges, g.global_out_degree,
                              rank, contrib, accum, dirty);
    });

    // --- Reduce: Add dirty accumulator mirrors into masters (skipped when
    // the partition guarantees contributions land on masters, e.g. the
    // incoming edge-cut) ---
    if (plan.do_reduce) {
      eng.sync_reduce<double>(
          accum.data(), dirty,
          [&](double& current, double incoming) {
            // Exclusive under the engine's shard lock (DESIGN.md §12).
            plain_add(current, incoming);
            return true;
          },
          [](graph::VertexId) {});
    }

    // --- Recompute masters, measure convergence ---
    double local_delta = 0.0;
    loop.compute([&] {
      rt::Spinlock delta_lock;
      rank_dirty.clear_all();
      eng.team().parallel_chunks(
          0, g.num_masters, [&](std::size_t lo, std::size_t hi, std::size_t) {
            double delta = 0.0;
            for (std::size_t lid = lo; lid < hi; ++lid) {
              const double next =
                  (1.0 - opt.damping) / n_global + opt.damping * accum[lid];
              delta += std::abs(next - rank[lid]);
              rank[lid] = next;
              rank_dirty.set(lid);
            }
            std::lock_guard<rt::Spinlock> guard(delta_lock);
            local_delta += delta;
          });
    });

    // --- Broadcast new ranks to mirrors (vertex cuts only) ---
    if (plan.do_broadcast) {
      eng.sync_broadcast<double>(rank.data(), rank_dirty,
                                 [](graph::VertexId) {});
    }

    eng.stats().rounds++;
    return local_delta;
  };
  loop.run(opt.max_iterations, step,
           [&](double global_delta) { return opt.converged(global_delta); });
  return rank;
}

}  // namespace lcr::apps
