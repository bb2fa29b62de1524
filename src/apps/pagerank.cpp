#include "apps/pagerank.hpp"

#include <cmath>
#include <cstring>
#include <limits>
#include <mutex>

#include "abelian/sync.hpp"
#include "apps/atomic_ops.hpp"
#include "apps/pagerank_pull.hpp"
#include "runtime/timer.hpp"
#include "telemetry/trace.hpp"

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

  std::uint32_t iter = 0;
  std::uint32_t resumed_at = std::numeric_limits<std::uint32_t>::max();

  // Recovery: the per-iteration transient state (contrib, accum, dirty
  // sets) is rebuilt every round, so the checkpoint is just the rank vector.
  if (rec != nullptr && rec->resume && rec->resume_round >= 0) {
    std::vector<std::vector<std::uint8_t>> arrays;
    if (rec->store->load(rec->host, rec->resume_round, arrays) &&
        arrays.size() == 1 && arrays[0].size() == n_local * sizeof(double)) {
      if (n_local > 0)
        std::memcpy(rank.data(), arrays[0].data(), arrays[0].size());
      iter = static_cast<std::uint32_t>(rec->resume_round);
      resumed_at = iter;
    }
  }

  for (; iter < opt.max_iterations; ++iter) {
    eng.cluster().round_tick(g.host_id, static_cast<std::int64_t>(iter));
    if (rec != nullptr && rec->interval > 0 &&
        iter % static_cast<std::uint32_t>(rec->interval) == 0 &&
        iter != resumed_at) {
      rec->store->save(rec->host, static_cast<std::int64_t>(iter),
                       {{rank.data(), n_local * sizeof(double)}});
    }
    telemetry::Span round_span("app", "round", g.host_id);
    // --- Computation: every local vertex pulls its in-neighbors'
    // contributions into its own accumulator (single writer per slot) ---
    rt::Timer compute_timer;
    {
      telemetry::Span compute_span("app", "compute", g.host_id);
      pull_rank_contributions(eng.team(), g.in_edges, g.global_out_degree,
                              rank, contrib, accum, dirty);
    }
    eng.stats().compute_s += compute_timer.elapsed_s();

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
    rt::Timer recompute_timer;
    double local_delta = 0.0;
    {
      telemetry::Span compute_span("app", "compute", g.host_id);
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
    }
    eng.stats().compute_s += recompute_timer.elapsed_s();

    // --- Broadcast new ranks to mirrors (vertex cuts only) ---
    if (plan.do_broadcast) {
      eng.sync_broadcast<double>(rank.data(), rank_dirty,
                                 [](graph::VertexId) {});
    }

    eng.stats().rounds++;

    const double global_delta = eng.cluster().oob_allreduce_sum(local_delta);
    if (opt.tolerance > 0.0 && global_delta < opt.tolerance) break;
  }
  return rank;
}

}  // namespace lcr::apps
