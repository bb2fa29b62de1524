// Graph partitioning in a few linear passes (DESIGN.md §17): an owner table
// places each edge with table lookups, one count-then-fill pass buckets edge
// ids by host, and each host is then built straight from the global CSR -
// a gid bitmap yields its mirrors already sorted, a dense gid -> lid scratch
// array relabels its edges, and its CSR arrays are sized exactly up front.
#include "graph/partition.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

namespace lcr::graph {

std::pair<int, int> cvc_grid(int num_hosts) {
  int pr = static_cast<int>(std::sqrt(static_cast<double>(num_hosts)));
  while (pr > 1 && num_hosts % pr != 0) --pr;
  return {pr, num_hosts / pr};
}

Csr symmetrize(const Csr& g) {
  EdgeList edges;
  std::vector<Weight> weights;
  const bool w = g.has_weights();
  edges.reserve(g.num_edges() * 2);
  if (w) weights.reserve(g.num_edges() * 2);
  for (VertexId u = 0; u < g.num_nodes(); ++u) {
    for (EdgeId e = g.edge_begin(u); e < g.edge_end(u); ++e) {
      const VertexId v = g.edge_target(e);
      edges.emplace_back(u, v);
      edges.emplace_back(v, u);
      if (w) {
        weights.push_back(g.edge_weight(e));
        weights.push_back(g.edge_weight(e));
      }
    }
  }
  return Csr::from_edges(g.num_nodes(), edges, weights);
}

namespace {

/// Contiguous master blocks balanced by out-edge count (Gemini's "blocked"
/// assignment that "tries to balance the assigned edges across hosts").
std::vector<VertexId> compute_master_bounds(const Csr& g, int num_hosts) {
  const VertexId n = g.num_nodes();
  std::vector<VertexId> bounds(static_cast<std::size_t>(num_hosts) + 1, n);
  bounds[0] = 0;
  const double target =
      static_cast<double>(g.num_edges()) / static_cast<double>(num_hosts);
  EdgeId acc = 0;
  int h = 1;
  for (VertexId v = 0; v < n && h < num_hosts; ++v) {
    acc += g.degree(v);
    if (static_cast<double>(acc) >= target * h) {
      bounds[static_cast<std::size_t>(h)] = v + 1;
      ++h;
    }
  }
  // Cuts never reached stay at n (empty hosts are legal for tiny graphs).
  return bounds;
}

}  // namespace

std::vector<DistGraph> partition(const Csr& g, int num_hosts,
                                 PartitionPolicy policy) {
  assert(num_hosts >= 1);
  const auto hosts_n = static_cast<std::size_t>(num_hosts);
  const VertexId n = g.num_nodes();
  const std::vector<VertexId> bounds = compute_master_bounds(g, num_hosts);
  const bool weighted = g.has_weights();

  // Owner table: the master host of every gid. Edge (u, v) then lives on
  // src_part[owner[u]] + dst_part[owner[v]] - u's owner for the edge cuts,
  // v's for the incoming cut, the (row, column) cell of the pr x pc grid for
  // the cartesian vertex cut - so placing an edge is three table lookups.
  std::vector<int> owner(n);
  std::vector<int> src_part(hosts_n);
  std::vector<int> dst_part(hosts_n);
  const auto [pr, pc] = cvc_grid(num_hosts);
  const bool cvc = policy == PartitionPolicy::CartesianVertexCut;
  const bool by_dst = policy == PartitionPolicy::IncomingEdgeCut;
  for (std::size_t h = 0; h < hosts_n; ++h) {
    std::fill(owner.begin() + bounds[h], owner.begin() + bounds[h + 1],
              static_cast<int>(h));
    const int p = static_cast<int>(h);
    src_part[h] = cvc ? p * pr / num_hosts * pc : by_dst ? 0 : p;
    dst_part[h] = cvc ? p * pc / num_hosts : by_dst ? p : 0;
  }
  auto for_each_edge_host = [&](auto&& fn) {
    for (VertexId u = 0; u < n; ++u) {
      const int base = src_part[static_cast<std::size_t>(owner[u])];
      for (EdgeId e = g.edge_begin(u); e < g.edge_end(u); ++e)
        fn(e, base + dst_part[static_cast<std::size_t>(
                         owner[g.edge_target(e)])]);
    }
  };

  // 1. Count-then-fill: every host's edges as global edge ids, in (u, e)
  //    order, in one exactly sized array.
  std::vector<EdgeId> host_begin(hosts_n + 1, 0);
  for_each_edge_host(
      [&](EdgeId, int h) { ++host_begin[static_cast<std::size_t>(h) + 1]; });
  for (std::size_t h = 0; h < hosts_n; ++h)
    host_begin[h + 1] += host_begin[h];
  std::vector<EdgeId> host_edges(g.num_edges());
  std::vector<EdgeId> cursor(host_begin.begin(), host_begin.end() - 1);
  for_each_edge_host([&](EdgeId e, int h) {
    host_edges[cursor[static_cast<std::size_t>(h)]++] = e;
  });

  // 2. Build each host in turn. Scratch shared by all hosts: the mirror
  //    bitmap (cleared as it is scanned), per-gid local edge counts (zeroed
  //    as they are read) and the gid -> lid array (every gid a host reads is
  //    rewritten for that host first). master_to_mirror fills in host order.
  std::vector<std::uint64_t> mirror_bits((std::size_t{n} + 63) / 64);
  std::vector<std::uint32_t> src_count(n, 0);
  std::vector<VertexId> lid_of(n);
  std::vector<CompressedPlan::Builder> to_mirror(
      hosts_n, CompressedPlan::Builder(num_hosts));
  std::vector<DistGraph> hosts(hosts_n);
  for (std::size_t h = 0; h < hosts_n; ++h) {
    DistGraph& dg = hosts[h];
    dg.host_id = static_cast<int>(h);
    dg.num_hosts = num_hosts;
    dg.policy = policy;
    dg.global_nodes = n;
    dg.master_bounds = bounds;

    const VertexId mlo = bounds[h];
    const VertexId nm = bounds[h + 1] - mlo;
    dg.num_masters = nm;

    // fn(u, e) over this host's edges; u advances with e (both ascending).
    auto for_each_local_edge = [&](auto&& fn) {
      VertexId u = 0;
      for (EdgeId i = host_begin[h]; i < host_begin[h + 1]; ++i) {
        const EdgeId e = host_edges[i];
        while (g.edge_end(u) <= e) ++u;
        fn(u, e);
      }
    };

    // Pass 1: mark non-master endpoints, count each source's local edges.
    for_each_local_edge([&](VertexId u, EdgeId e) {
      const VertexId v = g.edge_target(e);
      if (u - mlo >= nm) mirror_bits[u / 64] |= std::uint64_t{1} << (u % 64);
      if (v - mlo >= nm) mirror_bits[v / 64] |= std::uint64_t{1} << (v % 64);
      ++src_count[u];
    });

    VertexId num_mirrors = 0;
    for (const std::uint64_t w : mirror_bits)
      num_mirrors += static_cast<VertexId>(std::popcount(w));
    dg.num_local = nm + num_mirrors;

    // Number the proxies: the master block in order, then the mirrors in
    // the gid order the bitmap scan yields, setting each one's lid, CSR
    // count, global out-degree and plan entries as it is numbered.
    std::vector<EdgeId> out_offsets(static_cast<std::size_t>(dg.num_local) + 1);
    dg.global_out_degree.resize(dg.num_local);
    auto number = [&](VertexId lid, VertexId gid) {
      lid_of[gid] = lid;
      out_offsets[lid + 1] = src_count[gid];
      src_count[gid] = 0;
      dg.global_out_degree[lid] = static_cast<std::uint32_t>(g.degree(gid));
    };
    for (VertexId i = 0; i < nm; ++i) number(i, mlo + i);
    CompressedLidMap::Builder lids(mlo, nm);
    CompressedPlan::Builder to_master(num_hosts);
    VertexId lid = nm;
    for (std::size_t word = 0; word < mirror_bits.size(); ++word) {
      for (std::uint64_t w = mirror_bits[word]; w != 0; w &= w - 1) {
        const auto gid = static_cast<VertexId>(
            word * 64 + static_cast<std::size_t>(std::countr_zero(w)));
        number(lid, gid);
        lids.add_mirror(gid);
        // Both plan sides list shared vertices in gid order; the owner's
        // master lid is arithmetic (gid - its block start).
        const int p = owner[gid];
        to_master.append(p, lid);
        to_mirror[static_cast<std::size_t>(p)].append(
            static_cast<int>(h), gid - bounds[static_cast<std::size_t>(p)]);
        ++lid;
      }
      mirror_bits[word] = 0;
    }
    dg.lids = std::move(lids).build();
    dg.mirror_to_master = std::move(to_master).build();

    // Pass 2: fill the local out-CSR. Visiting edges in (u, e) order keeps
    // each source's edges in global order, as a stable counting sort would.
    for (std::size_t i = 1; i < out_offsets.size(); ++i)
      out_offsets[i] += out_offsets[i - 1];
    const EdgeId local_edges = out_offsets.back();
    std::vector<VertexId> out_targets(local_edges);
    std::vector<Weight> out_weights(weighted ? local_edges : 0);
    cursor.assign(out_offsets.begin(), out_offsets.end() - 1);
    for_each_local_edge([&](VertexId u, EdgeId e) {
      const EdgeId slot = cursor[lid_of[u]]++;
      out_targets[slot] = lid_of[g.edge_target(e)];
      if (weighted) out_weights[slot] = g.edge_weight(e);
    });
    dg.out_edges = Csr::adopt(std::move(out_offsets), std::move(out_targets),
                              std::move(out_weights));
    dg.in_edges = dg.out_edges.reverse();
  }

  for (std::size_t h = 0; h < hosts_n; ++h)
    hosts[h].master_to_mirror = std::move(to_mirror[h]).build();
  return hosts;
}

}  // namespace lcr::graph
