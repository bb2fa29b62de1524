// Compressed sparse row graph representation.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace lcr::graph {

using VertexId = std::uint32_t;
using EdgeId = std::uint64_t;
using Weight = std::uint32_t;

/// A directed edge (src, dst).
using Edge = std::pair<VertexId, VertexId>;
using EdgeList = std::vector<Edge>;

/// Immutable CSR over directed edges, with optional per-edge weights stored
/// in edge order.
class Csr {
 public:
  Csr() = default;

  /// Builds from an edge list (not required to be sorted). If `weights` is
  /// non-empty it must parallel `edges`.
  static Csr from_edges(VertexId num_nodes, const EdgeList& edges,
                        const std::vector<Weight>& weights = {});

  /// Adopts already-built CSR arrays: `offsets` has num_nodes + 1 entries
  /// ending at targets.size(); `weights` is empty or parallels `targets`.
  static Csr adopt(std::vector<EdgeId> offsets, std::vector<VertexId> targets,
                   std::vector<Weight> weights = {});

  VertexId num_nodes() const noexcept {
    return static_cast<VertexId>(offsets_.empty() ? 0 : offsets_.size() - 1);
  }
  EdgeId num_edges() const noexcept { return targets_.size(); }
  bool has_weights() const noexcept { return !weights_.empty(); }

  /// Out-degree of v.
  std::size_t degree(VertexId v) const noexcept {
    return offsets_[v + 1] - offsets_[v];
  }
  EdgeId edge_begin(VertexId v) const noexcept { return offsets_[v]; }
  EdgeId edge_end(VertexId v) const noexcept { return offsets_[v + 1]; }
  VertexId edge_target(EdgeId e) const noexcept { return targets_[e]; }
  Weight edge_weight(EdgeId e) const noexcept {
    return weights_.empty() ? 1 : weights_[e];
  }

  /// Iterates fn(dst, weight) over v's out-edges.
  template <typename Fn>
  void for_each_edge(VertexId v, Fn&& fn) const {
    for (EdgeId e = offsets_[v]; e < offsets_[v + 1]; ++e)
      fn(targets_[e], weights_.empty() ? Weight{1} : weights_[e]);
  }

  /// Returns the transpose (in-edges become out-edges), carrying weights.
  Csr reverse() const;

  const std::vector<EdgeId>& offsets() const noexcept { return offsets_; }
  const std::vector<VertexId>& targets() const noexcept { return targets_; }
  const std::vector<Weight>& weights() const noexcept { return weights_; }

 private:
  std::vector<EdgeId> offsets_;   // size num_nodes + 1
  std::vector<VertexId> targets_; // size num_edges
  std::vector<Weight> weights_;   // empty or size num_edges
};

}  // namespace lcr::graph
