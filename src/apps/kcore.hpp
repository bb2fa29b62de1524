// k-core decomposition on the Abelian engine.
//
// Iterative peeling: vertices with remaining degree < k are removed; each
// removal decrements its neighbors' degrees; repeat until a fixed point.
// Defined on undirected graphs (pass a symmetrized input).
//
// This app exercises a different synchronization mix than the monotone-min
// apps: per-round *delta* reduction (Add-combine of decrement counts from
// mirror proxies) plus a broadcast of removal decisions so mirror proxies
// push decrements along their locally-owned edges under vertex cuts.
#pragma once

#include <cstdint>
#include <vector>

#include "abelian/engine.hpp"
#include "runtime/checkpoint.hpp"

namespace lcr::apps {

/// Runs distributed k-core; returns, per local vertex, 1 if it survives in
/// the k-core and 0 otherwise. eng.stats() carries timings/rounds.
std::vector<std::uint32_t> run_kcore(abelian::HostEngine& eng,
                                     std::uint32_t k,
                                     rt::RecoveryCtx* rec = nullptr);

/// Sequential reference (peeling with a worklist).
std::vector<std::uint32_t> reference_kcore(const graph::Csr& g,
                                           std::uint32_t k);

}  // namespace lcr::apps
