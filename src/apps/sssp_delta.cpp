#include "apps/sssp_delta.hpp"

#include <algorithm>
#include <limits>

#include "abelian/sync.hpp"
#include "apps/atomic_ops.hpp"
#include "apps/round_loop.hpp"

namespace lcr::apps {

namespace {
constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t kNone = ~std::uint64_t{0};
}

std::vector<std::uint32_t> run_sssp_delta(abelian::HostEngine& eng,
                                          graph::VertexId source,
                                          std::uint32_t delta,
                                          DeltaSsspStats* stats,
                                          rt::RecoveryCtx* rec) {
  const graph::DistGraph& g = eng.graph();
  const std::size_t n = g.num_local;

  if (delta == 0) {
    // Heuristic: a few times the maximum local edge weight, agreed globally.
    std::uint32_t max_w = 1;
    for (graph::EdgeId e = 0; e < g.out_edges.num_edges(); ++e)
      max_w = std::max(max_w, g.out_edges.edge_weight(e));
    delta = static_cast<std::uint32_t>(
        eng.cluster().oob_allreduce_max(static_cast<double>(max_w)));
    delta = std::max<std::uint32_t>(1, delta);
  }

  std::vector<std::uint32_t> dist(n, kInf);
  rt::ConcurrentBitset active(n);
  rt::ConcurrentBitset frontier(n);
  rt::ConcurrentBitset dirty(n);

  auto maybe_activate = [&](graph::VertexId lid) {
    if (g.out_edges.degree(lid) > 0) active.set(lid);
  };

  for (std::size_t lid = 0; lid < n; ++lid) {
    if (g.local_to_global(static_cast<graph::VertexId>(lid)) == source) {
      dist[lid] = 0;
      maybe_activate(static_cast<graph::VertexId>(lid));
    }
  }

  const abelian::SyncPlan plan = abelian::plan_push_monotone(g.policy);
  std::atomic<std::uint64_t> relaxations{0};
  std::uint64_t buckets = 0;
  std::uint64_t bucket = 0;  // current bucket index

  // A driver round settles one bucket; frontier and dirty are clear at its
  // boundary, so dist + active + the bucket index are the whole state.
  RoundLoop loop(eng.cluster(), g.host_id, "app", eng.stats().compute_s, rec);
  loop.persist(dist);
  loop.persist(active);
  loop.persist(bucket);

  const auto settle_bucket = [&] {
    const std::uint64_t threshold =
        (bucket + 1) * static_cast<std::uint64_t>(delta);
    for (;;) {
      // Frontier = active vertices whose distance falls in the bucket.
      frontier.clear_all();
      std::uint64_t in_bucket = 0;
      active.for_each([&](std::size_t lid) {
        if (dist[lid] < threshold) {
          frontier.set(lid);
          active.reset(lid);
          ++in_bucket;
        }
      });
      const std::uint64_t global_in_bucket =
          eng.cluster().oob_allreduce_sum(in_bucket);
      if (global_in_bucket == 0) break;

      loop.compute([&] {
        eng.team().parallel_chunks(
            0, n, [&](std::size_t lo, std::size_t hi, std::size_t) {
              frontier.for_each_in_range(lo, hi, [&](std::size_t lid) {
                const std::uint32_t d = dist[lid];
                g.out_edges.for_each_edge(
                    static_cast<graph::VertexId>(lid),
                    [&](graph::VertexId dst, graph::Weight w) {
                      const std::uint32_t cand = d + w;
                      relaxations.fetch_add(1, std::memory_order_relaxed);
                      if (cand < dist[dst] && atomic_min(dist[dst], cand)) {
                        dirty.set(dst);
                        maybe_activate(dst);
                      }
                    });
              });
            });
      });

      if (plan.do_reduce) {
        eng.sync_reduce<std::uint32_t>(
            dist.data(), dirty,
            [&](std::uint32_t& current, std::uint32_t incoming) {
              // Exclusive under the engine's shard lock (DESIGN.md §12).
              return plain_min(current, incoming);
            },
            [&](graph::VertexId lid) {
              dirty.set(lid);
              maybe_activate(lid);
            });
      }
      if (plan.do_broadcast) {
        eng.sync_broadcast<std::uint32_t>(
            dist.data(), dirty,
            [&](graph::VertexId lid) { maybe_activate(lid); });
      }
      dirty.clear_all();
      eng.stats().rounds++;
    }
    ++buckets;

    // The next non-empty bucket is the min active distance, agreed globally.
    std::uint64_t local_min = kNone;
    active.for_each([&](std::size_t lid) {
      local_min = std::min(local_min, static_cast<std::uint64_t>(dist[lid]));
    });
    return RoundLoop::Min{local_min};
  };
  loop.run(RoundLoop::kNoCap, settle_bucket, [&](std::uint64_t global_min) {
    if (global_min == kNone) return true;  // no active vertex anywhere
    bucket = global_min / delta;
    return false;
  });

  if (stats != nullptr) {
    stats->buckets = buckets;
    stats->relaxations = relaxations.load();
  }
  return dist;
}

}  // namespace lcr::apps
