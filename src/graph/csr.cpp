#include "graph/csr.hpp"

#include <cassert>
#include <utility>

namespace lcr::graph {

Csr Csr::from_edges(VertexId num_nodes, const EdgeList& edges,
                    const std::vector<Weight>& weights) {
  assert(weights.empty() || weights.size() == edges.size());
  Csr g;
  g.offsets_.assign(static_cast<std::size_t>(num_nodes) + 1, 0);
  for (const Edge& e : edges) {
    assert(e.first < num_nodes && e.second < num_nodes);
    ++g.offsets_[e.first + 1];
  }
  for (std::size_t v = 1; v <= num_nodes; ++v)
    g.offsets_[v] += g.offsets_[v - 1];

  g.targets_.resize(edges.size());
  if (!weights.empty()) g.weights_.resize(edges.size());
  std::vector<EdgeId> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const EdgeId slot = cursor[edges[i].first]++;
    g.targets_[slot] = edges[i].second;
    if (!weights.empty()) g.weights_[slot] = weights[i];
  }
  return g;
}

Csr Csr::adopt(std::vector<EdgeId> offsets, std::vector<VertexId> targets,
               std::vector<Weight> weights) {
  assert(!offsets.empty() && offsets.back() == targets.size());
  assert(weights.empty() || weights.size() == targets.size());
  Csr g;
  g.offsets_ = std::move(offsets);
  g.targets_ = std::move(targets);
  g.weights_ = std::move(weights);
  return g;
}

Csr Csr::reverse() const {
  Csr r;
  const VertexId n = num_nodes();
  r.offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (VertexId t : targets_) ++r.offsets_[t + 1];
  for (std::size_t v = 1; v <= n; ++v) r.offsets_[v] += r.offsets_[v - 1];

  r.targets_.resize(targets_.size());
  if (!weights_.empty()) r.weights_.resize(weights_.size());
  std::vector<EdgeId> cursor(r.offsets_.begin(), r.offsets_.end() - 1);
  for (VertexId src = 0; src < n; ++src) {
    for (EdgeId e = offsets_[src]; e < offsets_[src + 1]; ++e) {
      const EdgeId slot = cursor[targets_[e]]++;
      r.targets_[slot] = src;
      if (!weights_.empty()) r.weights_[slot] = weights_[e];
    }
  }
  return r;
}

}  // namespace lcr::graph
