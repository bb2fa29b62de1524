// PageRank on the Abelian engine (accumulate-reduce-recompute-broadcast).
//
// Topology-driven rounds: every local vertex pulls rank/out_degree from its
// local in-neighbors into its own accumulator (owner-writes, no atomics; see
// pagerank_pull.hpp); dirty accumulator mirrors are Add-reduced to their
// masters; masters recompute rank = (1-d)/n + d * accum; under vertex cuts
// the new ranks are broadcast back to mirrors (partition-aware sync). This is
// the app with the most communication rounds, where the paper sees LCI's
// largest wins.
#pragma once

#include <cstdint>
#include <vector>

#include "abelian/engine.hpp"
#include "runtime/checkpoint.hpp"

namespace lcr::apps {

struct PagerankOptions {
  double damping = 0.85;
  /// Round cap; the paper runs "up to 100 iterations".
  std::uint32_t max_iterations = 100;
  /// Early-out when the global L1 rank delta falls below this (0 disables).
  double tolerance = 1e-7;
};

/// Runs distributed PageRank; returns this host's local rank values.
std::vector<double> run_pagerank(abelian::HostEngine& eng,
                                 PagerankOptions opt = {},
                                 rt::RecoveryCtx* rec = nullptr);

}  // namespace lcr::apps
