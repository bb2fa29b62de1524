// Owner-writes pull of PageRank contributions, shared by the Abelian and
// Gemini PageRank kernels (DESIGN.md §4, "PageRank is an owner-writes pull").
//
// Pass 1 computes each source's contribution rank/out_degree once; pass 2
// has every local vertex sum the contributions of its local in-neighbors
// into its own accumulator slot. Each slot has exactly one writer, so the
// pass needs no atomics and its result does not depend on how the team
// splits the range.
//
// The sum is bitwise equal to a sequential push along out-edges
// (for src ascending, for each out-edge: accum[dst] += contrib[src]):
// Csr::reverse() lists each vertex's in-sources in ascending source id,
// with duplicate edges in out-edge order, which is exactly the order the
// push loop adds into accum[dst], starting from 0.0.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "runtime/bitset.hpp"
#include "runtime/thread_team.hpp"

namespace lcr::apps {

/// Fills accum[v] = 0.0 + sum of contrib[src] over in_edges(v) for every
/// v < in_edges.num_nodes() (vertices without in-edges get 0.0), and leaves
/// `dirty` holding exactly the vertices with at least one in-edge.
/// contrib[u] is rank[u] / out_degree[u] for u < rank.size() (0.0 when the
/// degree is 0); slots past rank.size() are left as the caller set them.
/// `contrib` and `accum` must hold in_edges.num_nodes() entries.
inline void pull_rank_contributions(
    rt::ThreadTeam& team, const graph::Csr& in_edges,
    const std::vector<std::uint32_t>& out_degree,
    const std::vector<double>& rank, std::vector<double>& contrib,
    std::vector<double>& accum, rt::ConcurrentBitset& dirty) {
  dirty.clear_all();
  team.parallel_chunks(
      0, rank.size(), [&](std::size_t lo, std::size_t hi, std::size_t) {
        for (std::size_t u = lo; u < hi; ++u) {
          const std::uint32_t outdeg = out_degree[u];
          contrib[u] =
              outdeg == 0 ? 0.0 : rank[u] / static_cast<double>(outdeg);
        }
      });
  const auto& offsets = in_edges.offsets();
  const auto& sources = in_edges.targets();
  team.parallel_chunks(
      0, in_edges.num_nodes(),
      [&](std::size_t lo, std::size_t hi, std::size_t) {
        for (std::size_t v = lo; v < hi; ++v) {
          double sum = 0.0;
          for (graph::EdgeId e = offsets[v]; e < offsets[v + 1]; ++e)
            sum += contrib[sources[e]];
          accum[v] = sum;
          if (offsets[v + 1] != offsets[v]) dirty.set(v);
        }
      });
}

}  // namespace lcr::apps
