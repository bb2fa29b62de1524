#include "apps/kcore.hpp"

#include <deque>

#include "apps/atomic_ops.hpp"
#include "apps/round_loop.hpp"

namespace lcr::apps {

std::vector<std::uint32_t> run_kcore(abelian::HostEngine& eng,
                                     std::uint32_t k, rt::RecoveryCtx* rec) {
  const graph::DistGraph& g = eng.graph();
  const std::size_t n = g.num_local;

  // deg is authoritative at masters; dead/newly_dead mark removals.
  std::vector<std::uint32_t> deg(g.global_out_degree.begin(),
                                 g.global_out_degree.end());
  std::vector<std::uint32_t> dead_flag(n, 0);
  std::vector<std::uint32_t> delta(n, 0);
  rt::ConcurrentBitset dead(n);
  rt::ConcurrentBitset newly_dead(n);
  rt::ConcurrentBitset dirty_delta(n);
  rt::ConcurrentBitset dirty_dead(n);

  // A round is decide -> termination -> peel. At its boundary the removal
  // and delta transients are clear (dead_flag is only read where dirty_dead
  // is set, and decide rewrites those), so deg + dead are the whole state.
  RoundLoop loop(eng.cluster(), g.host_id, "app", eng.stats().compute_s, rec);
  loop.persist(deg);
  loop.persist(dead);

  // --- 1. Masters decide removals from their authoritative degree ---
  const auto decide = [&] {
    std::atomic<std::uint64_t> deaths{0};
    loop.compute([&] {
      eng.team().parallel_chunks(
          0, g.num_masters, [&](std::size_t lo, std::size_t hi, std::size_t) {
            for (std::size_t lid = lo; lid < hi; ++lid) {
              if (!dead.test(lid) && deg[lid] < k) {
                dead.set(lid);
                newly_dead.set(lid);
                dead_flag[lid] = 1;
                dirty_dead.set(lid);
                deaths.fetch_add(1, std::memory_order_relaxed);
              }
            }
          });
    });
    return deaths.load();
  };

  const auto peel = [&] {
    // --- 2. Broadcast removals so mirror proxies learn about them ---
    eng.sync_broadcast<std::uint32_t>(dead_flag.data(), dirty_dead,
                                      [&](graph::VertexId lid) {
                                        if (dead.set(lid)) newly_dead.set(lid);
                                      });
    dirty_dead.clear_all();

    // --- 3. Push decrements along the removed vertices' local out-edges ---
    loop.compute([&] {
      eng.team().parallel_chunks(
          0, n, [&](std::size_t lo, std::size_t hi, std::size_t) {
            newly_dead.for_each_in_range(lo, hi, [&](std::size_t lid) {
              g.out_edges.for_each_edge(
                  static_cast<graph::VertexId>(lid),
                  [&](graph::VertexId dst, graph::Weight) {
                    if (dead.test(dst)) return;
                    atomic_add(delta[dst], std::uint32_t{1});
                    dirty_delta.set(dst);
                  });
            });
          });
      newly_dead.clear_all();
    });

    // --- 4. Add-reduce decrement deltas from mirrors to masters ---
    eng.sync_reduce<std::uint32_t>(
        delta.data(), dirty_delta,
        [&](std::uint32_t& current, std::uint32_t incoming) {
          // Exclusive under the engine's shard lock (DESIGN.md §12).
          plain_add(current, incoming);
          return true;
        },
        [](graph::VertexId) {});

    // --- 5. Masters apply deltas; everyone resets round state ---
    loop.compute([&] {
      eng.team().parallel_chunks(
          0, n, [&](std::size_t lo, std::size_t hi, std::size_t) {
            for (std::size_t lid = lo; lid < hi; ++lid) {
              if (lid < g.num_masters) {
                const std::uint32_t d = delta[lid];
                deg[lid] = d >= deg[lid] ? 0 : deg[lid] - d;
              }
              delta[lid] = 0;
            }
          });
      dirty_delta.clear_all();
    });
    eng.stats().rounds++;
  };

  // Global fixed point: nobody died anywhere this round.
  loop.run(RoundLoop::kNoCap, decide,
           [](std::uint64_t total_deaths) { return total_deaths == 0; }, peel);

  std::vector<std::uint32_t> alive(n);
  for (std::size_t lid = 0; lid < n; ++lid)
    alive[lid] = dead.test(lid) ? 0 : 1;
  return alive;
}

std::vector<std::uint32_t> reference_kcore(const graph::Csr& g,
                                           std::uint32_t k) {
  const graph::VertexId n = g.num_nodes();
  std::vector<std::uint32_t> deg(n);
  std::vector<std::uint32_t> alive(n, 1);
  std::deque<graph::VertexId> worklist;
  for (graph::VertexId v = 0; v < n; ++v) {
    deg[v] = static_cast<std::uint32_t>(g.degree(v));
    if (deg[v] < k) {
      alive[v] = 0;
      worklist.push_back(v);
    }
  }
  while (!worklist.empty()) {
    const graph::VertexId v = worklist.front();
    worklist.pop_front();
    for (graph::EdgeId e = g.edge_begin(v); e < g.edge_end(v); ++e) {
      const graph::VertexId w = g.edge_target(e);
      if (!alive[w]) continue;
      if (--deg[w] < k) {
        alive[w] = 0;
        worklist.push_back(w);
      }
    }
  }
  return alive;
}

}  // namespace lcr::apps
