// Delta-stepping SSSP on the Abelian engine.
//
// The data-driven Bellman-Ford driver (sssp.hpp) relaxes every active vertex
// each round, which wastes work on far-away vertices that will improve again
// later. Delta-stepping (Meyer & Sanders) processes vertices in distance
// buckets of width delta: only vertices whose tentative distance falls in
// the current bucket relax their edges; the bucket is settled to a fixed
// point before moving on. This is the priority-scheduling style the Galois
// systems (Abelian's family) use for sssp.
//
// Distributed realization: the bucket index advances globally (an OOB min
// allreduce picks the next non-empty bucket), and within a bucket, rounds of
// relax + partition-aware sync run until no host has an active vertex in the
// bucket.
#pragma once

#include <cstdint>
#include <vector>

#include "abelian/engine.hpp"
#include "runtime/checkpoint.hpp"

namespace lcr::apps {

struct DeltaSsspStats {
  std::uint64_t buckets = 0;      // bucket epochs processed
  std::uint64_t relaxations = 0;  // edge relaxations performed
};

/// Runs distributed delta-stepping SSSP from `source`; returns this host's
/// local distances. `delta` = bucket width (0 picks a heuristic from the
/// max edge weight).
std::vector<std::uint32_t> run_sssp_delta(abelian::HostEngine& eng,
                                          graph::VertexId source,
                                          std::uint32_t delta = 0,
                                          DeltaSsspStats* stats = nullptr,
                                          rt::RecoveryCtx* rec = nullptr);

}  // namespace lcr::apps
