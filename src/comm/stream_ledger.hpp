// Receive-side completion ledger for one streamed exchange (an Abelian sync
// phase or a Gemini round).
//
// Streaming protocol: data chunks carry num_chunks == 0; one header-only
// tail per peer carries the total (data chunks + itself) and reuses
// base_pos to announce how many one-sided direct puts the peer issued
// (DESIGN.md §15). Single-message senders (MPI-RMA) send num_chunks == 1
// and no tail. Chunks and puts may be counted in any order - several
// threads receive and apply concurrently, a rendezvous chunk completes after
// the eager tail posted behind it, and a put usually beats the tail that
// announces it - so a peer completes only once its tail has landed, every
// announced chunk has been counted, and at least the announced number of
// puts has landed.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "comm/message.hpp"
#include "runtime/spinlock.hpp"

namespace lcr::comm {

class StreamLedger {
 public:
  /// Starts exchange `id` on a cluster of `num_hosts`, which completes after
  /// `expected_peers` distinct peers have balanced. Call before any chunk of
  /// the exchange is noted; with expected_peers == 0 it is complete at once.
  void arm(std::uint32_t id, int num_hosts, std::size_t expected_peers);

  /// Counts one received chunk (data or tail) from `src`, already applied.
  void note_chunk(int src, const ChunkHeader& header);

  /// Counts one landed direct put from `src`, already applied.
  void note_direct(int src);

  bool complete() const noexcept {
    return complete_.load(std::memory_order_acquire);
  }

  /// The armed exchange id (phase or round); stable between arms.
  std::uint32_t id() const noexcept { return id_; }

 private:
  void check_peer(std::size_t s);  // callers hold lock_

  std::uint32_t id_ = 0;
  rt::Spinlock lock_;
  std::vector<std::int32_t> total_;  // expected chunks per peer; -1 unknown
  std::vector<std::int32_t> got_;
  std::vector<std::int32_t> direct_expected_;
  std::vector<std::int32_t> direct_got_;
  std::vector<char> finished_;  // peer already counted toward completion
  std::size_t peers_remaining_ = 0;
  std::atomic<bool> complete_{false};
};

}  // namespace lcr::comm
