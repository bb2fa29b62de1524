// Graph partitioning in a few linear passes on min(hosts, cores) workers
// (DESIGN.md §17): an owner table places each edge with table lookups, one
// count-then-fill pass over per-worker vertex chunks buckets edge ids by
// host, and the workers then build the hosts straight from the global CSR -
// a gid bitmap yields each host's mirrors already sorted, a dense gid -> lid
// scratch array relabels its edges, and one fill pass writes both its out-
// and in-CSR into arrays sized exactly up front.
#include "graph/partition.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cmath>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "runtime/thread_team.hpp"

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

/// team.run(fn), except that an exception from any worker (an allocation
/// failing) is caught on that worker and the first one is rethrown here
/// after every worker has finished, as the serial build would have thrown.
template <typename Fn>
void run_workers(rt::ThreadTeam& team, Fn&& fn) {
  std::mutex mu;
  std::exception_ptr error;
  team.run([&](std::size_t worker) {
    try {
      fn(worker);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu);
      if (!error) error = std::current_exception();
    }
  });
  if (error) std::rethrow_exception(error);
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

  // W workers on a ThreadTeam (sibling fibers when called on a fiber). Every
  // phase below writes disjoint data per worker, so the output does not
  // depend on W or on the schedule.
  const std::size_t workers = std::min<std::size_t>(
      hosts_n, std::max(1u, std::thread::hardware_concurrency()));
  rt::ThreadTeam team(workers);

  // 1. Bucket every host's edges as global edge ids, in (u, e) order, in one
  //    exactly sized array. The vertex range is cut into one chunk per
  //    worker, balanced by edge count; each worker counts its chunk's edges
  //    per host, a prefix sum in (host, chunk) order gives every (chunk,
  //    host) pair its own slice of the host's bucket, and each worker fills
  //    its slices. Chunks are in vertex order, so each bucket stays sorted.
  const std::vector<EdgeId>& offsets = g.offsets();
  std::vector<VertexId> chunk_lo(workers + 1, n);
  for (std::size_t c = 0; c < workers; ++c)
    chunk_lo[c] = static_cast<VertexId>(
        std::lower_bound(offsets.begin(), offsets.begin() + n,
                         g.num_edges() * c / workers) -
        offsets.begin());
  auto for_each_chunk_edge = [&](std::size_t c, auto&& fn) {
    for (VertexId u = chunk_lo[c]; u < chunk_lo[c + 1]; ++u) {
      const int base = src_part[static_cast<std::size_t>(owner[u])];
      for (EdgeId e = g.edge_begin(u); e < g.edge_end(u); ++e)
        fn(e, base + dst_part[static_cast<std::size_t>(
                         owner[g.edge_target(e)])]);
    }
  };
  // slice[c * hosts_n + h]: edges of chunk c on host h, then (after the
  // prefix sum) where chunk c's part of host h's bucket starts.
  std::vector<EdgeId> slice(workers * hosts_n, 0);
  run_workers(team, [&](std::size_t c) {
    std::vector<EdgeId> count(hosts_n, 0);
    for_each_chunk_edge(
        c, [&](EdgeId, int h) { ++count[static_cast<std::size_t>(h)]; });
    std::copy(count.begin(), count.end(), slice.begin() + c * hosts_n);
  });
  std::vector<EdgeId> host_begin(hosts_n + 1, 0);
  for (std::size_t h = 0; h < hosts_n; ++h) {
    EdgeId at = host_begin[h];
    for (std::size_t c = 0; c < workers; ++c)
      at += std::exchange(slice[c * hosts_n + h], at);
    host_begin[h + 1] = at;
  }
  std::vector<EdgeId> host_edges(g.num_edges());
  run_workers(team, [&](std::size_t c) {
    std::vector<EdgeId> cursor(slice.begin() + c * hosts_n,
                               slice.begin() + (c + 1) * hosts_n);
    for_each_chunk_edge(c, [&](EdgeId e, int h) {
      host_edges[cursor[static_cast<std::size_t>(h)]++] = e;
    });
  });

  // 2. Build the hosts in parallel; workers claim them through a counter.
  //    Host h appends only to peer h's list of every to_mirror[p], so each
  //    per-(p, h) builder has a single writer.
  std::vector<CompressedPlan::Builder> to_mirror(
      hosts_n, CompressedPlan::Builder(num_hosts));
  std::vector<DistGraph> hosts(hosts_n);
  std::atomic<std::size_t> next_host{0};
  run_workers(team, [&](std::size_t) {
    // Per-worker scratch, reused by every host the worker builds: the
    // mirror bitmap (cleared as it is scanned), per-gid local out- and
    // in-edge counts (zeroed as they are read) and the gid -> lid array
    // (every gid a host reads is rewritten for that host first).
    std::vector<std::uint64_t> mirror_bits((std::size_t{n} + 63) / 64);
    std::vector<std::uint32_t> out_count(n, 0);
    std::vector<std::uint32_t> in_count(n, 0);
    std::vector<VertexId> lid_of(n);
    for (;;) {
      const std::size_t h = next_host.fetch_add(1);
      if (h >= hosts_n) break;
      DistGraph& dg = hosts[h];
      dg.host_id = static_cast<int>(h);
      dg.num_hosts = num_hosts;
      dg.policy = policy;
      dg.global_nodes = n;
      dg.master_bounds = bounds;

      const VertexId mlo = bounds[h];
      const VertexId mhi = bounds[h + 1];
      const VertexId nm = mhi - mlo;
      dg.num_masters = nm;

      // fn(u, e) over bucket positions [lo, hi); u advances with e (both
      // ascending), starting at the source of the first edge.
      auto for_each_local_edge = [&](EdgeId lo, EdgeId hi, auto&& fn) {
        if (lo == hi) return;
        auto u = static_cast<VertexId>(
            std::upper_bound(offsets.begin(), offsets.end(), host_edges[lo]) -
            offsets.begin() - 1);
        for (EdgeId i = lo; i < hi; ++i) {
          const EdgeId e = host_edges[i];
          while (g.edge_end(u) <= e) ++u;
          fn(u, e);
        }
      };

      // Pass 1: mark non-master endpoints, count each source's out-edges
      // and each target's in-edges.
      for_each_local_edge(host_begin[h], host_begin[h + 1],
                          [&](VertexId u, EdgeId e) {
                            const VertexId v = g.edge_target(e);
                            if (u - mlo >= nm)
                              mirror_bits[u / 64] |= std::uint64_t{1}
                                                     << (u % 64);
                            if (v - mlo >= nm)
                              mirror_bits[v / 64] |= std::uint64_t{1}
                                                     << (v % 64);
                            ++out_count[u];
                            ++in_count[v];
                          });

      VertexId num_mirrors = 0;
      for (const std::uint64_t w : mirror_bits)
        num_mirrors += static_cast<VertexId>(std::popcount(w));
      dg.num_local = nm + num_mirrors;

      // Number the proxies: the master block in order, then the mirrors in
      // the gid order the bitmap scan yields, setting each one's lid, CSR
      // counts, global out-degree and plan entries as it is numbered.
      const std::size_t nl = dg.num_local;
      std::vector<EdgeId> out_offsets(nl + 1);
      std::vector<EdgeId> in_offsets(nl + 1);
      dg.global_out_degree.resize(nl);
      auto number = [&](VertexId lid, VertexId gid) {
        lid_of[gid] = lid;
        out_offsets[lid + 1] = std::exchange(out_count[gid], 0);
        in_offsets[lid + 1] = std::exchange(in_count[gid], 0);
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

      // Pass 2: fill the local out- and in-CSR through per-lid cursors,
      // visiting sources in lid order: the bucket's contiguous run of
      // master-sourced edges, then the edges before it (mirror sources below
      // mlo), then those after it. Within a source edges stay in global
      // order, so the out-CSR is what a stable counting sort gives and the
      // in-CSR is exactly out_edges.reverse().
      for (std::size_t i = 1; i <= nl; ++i) {
        out_offsets[i] += out_offsets[i - 1];
        in_offsets[i] += in_offsets[i - 1];
      }
      const EdgeId local_edges = out_offsets.back();
      std::vector<VertexId> out_targets(local_edges);
      std::vector<VertexId> in_sources(local_edges);
      std::vector<Weight> out_weights(weighted ? local_edges : 0);
      std::vector<Weight> in_weights(weighted ? local_edges : 0);
      std::vector<EdgeId> out_cursor(out_offsets.begin(), out_offsets.end() - 1);
      std::vector<EdgeId> in_cursor(in_offsets.begin(), in_offsets.end() - 1);
      auto fill = [&](VertexId u, EdgeId e) {
        const VertexId src = lid_of[u];
        const VertexId dst = lid_of[g.edge_target(e)];
        const EdgeId out_slot = out_cursor[src]++;
        const EdgeId in_slot = in_cursor[dst]++;
        out_targets[out_slot] = dst;
        in_sources[in_slot] = src;
        if (weighted) {
          out_weights[out_slot] = g.edge_weight(e);
          in_weights[in_slot] = g.edge_weight(e);
        }
      };
      if (local_edges != 0) {
        const auto first = host_edges.begin() + host_begin[h];
        const auto last = host_edges.begin() + host_begin[h + 1];
        const auto master_lo = std::lower_bound(first, last, offsets[mlo]);
        const auto master_hi = std::lower_bound(master_lo, last, offsets[mhi]);
        const auto at = [&](auto it) {
          return static_cast<EdgeId>(it - host_edges.begin());
        };
        for_each_local_edge(at(master_lo), at(master_hi), fill);
        for_each_local_edge(at(first), at(master_lo), fill);
        for_each_local_edge(at(master_hi), at(last), fill);
      }
      dg.out_edges = Csr::adopt(std::move(out_offsets), std::move(out_targets),
                                std::move(out_weights));
      dg.in_edges = Csr::adopt(std::move(in_offsets), std::move(in_sources),
                               std::move(in_weights));
    }
  });

  for (std::size_t h = 0; h < hosts_n; ++h)
    hosts[h].master_to_mirror = std::move(to_mirror[h]).build();
  return hosts;
}

}  // namespace lcr::graph
