// Privatized dense combine for Gemini's dense push rounds (DESIGN.md §4,
// "Gemini's dense combine is privatized").
//
// A dense round pre-combines every frontier out-edge's candidate into one
// value per local destination before anything is signalled. As a shared
// CAS push each edge paid an unpredictable compare, a CAS and a bitset
// fetch_or, because two compute threads could write the same slot. Here the
// writers never conflict: compute thread t min-combines branch-free into its
// own slot array (thread 0 straight into `combined`), and a second pass with
// one owner per 64-slot word folds the private arrays into `combined` and
// writes `touched` a word at a time. Min is order-free, so `combined` and
// `touched` equal a sequential push for any thread count.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "runtime/bitset.hpp"
#include "runtime/thread_team.hpp"

namespace lcr::gemini {

/// Private slot arrays for dense_combine: one per compute thread after the
/// first, n_local entries each, all kInf. A 1-thread team gets none.
template <typename Traits>
std::vector<std::vector<typename Traits::Label>> make_private_slots(
    std::size_t threads, std::size_t n_local) {
  return std::vector<std::vector<typename Traits::Label>>(
      threads > 1 ? threads - 1 : 0,
      std::vector<typename Traits::Label>(n_local, Traits::kInf));
}

/// For every v < combined.size(): combined[v] = min over frontier vertices u
/// and out-edges (u, v, w) of Traits::relax(labels[u], w), or kInf when there
/// is none; `touched` holds exactly the v with combined[v] != kInf.
/// On entry every entry of `combined` and of `priv` (from make_private_slots
/// for this team) must be kInf; `priv` is kInf again on return. `touched`
/// is overwritten whole, so it needs no clearing.
template <typename Traits>
void dense_combine(rt::ThreadTeam& team, const graph::Csr& out_edges,
                   const rt::ConcurrentBitset& frontier,
                   const std::vector<typename Traits::Label>& labels,
                   std::vector<typename Traits::Label>& combined,
                   std::vector<std::vector<typename Traits::Label>>& priv,
                   rt::ConcurrentBitset& touched) {
  using Label = typename Traits::Label;
  team.parallel_chunks(
      0, labels.size(), [&](std::size_t lo, std::size_t hi, std::size_t tid) {
        Label* slot = tid == 0 ? combined.data() : priv[tid - 1].data();
        frontier.for_each_in_range(lo, hi, [&](std::size_t u) {
          const Label src_label = labels[u];
          out_edges.for_each_edge(
              static_cast<graph::VertexId>(u),
              [&](graph::VertexId dst, graph::Weight w) {
                const Label cand = Traits::relax(src_label, w);
                Label& s = slot[dst];
                s = cand < s ? cand : s;
              });
        });
      });

  // Owner-writes merge: each chunk covers whole 64-slot words, so exactly
  // one thread writes each combined slot and each touched word.
  const std::size_t n = combined.size();
  constexpr std::size_t kWordsPerChunk = 64;
  team.parallel_chunks(
      0, touched.num_words(),
      [&](std::size_t wlo, std::size_t whi, std::size_t) {
        const std::size_t lo = wlo * 64;
        const std::size_t hi = std::min(n, whi * 64);
        for (auto& p : priv) {
          for (std::size_t v = lo; v < hi; ++v) {
            combined[v] = p[v] < combined[v] ? p[v] : combined[v];
            p[v] = Traits::kInf;
          }
        }
        for (std::size_t wi = wlo; wi < whi; ++wi) {
          std::uint64_t word = 0;
          const std::size_t end = std::min(n, wi * 64 + 64);
          for (std::size_t v = wi * 64; v < end; ++v)
            word |= static_cast<std::uint64_t>(combined[v] != Traits::kInf)
                    << (v - wi * 64);
          touched.set_word(wi, word);
        }
      },
      kWordsPerChunk);
}

}  // namespace lcr::gemini
