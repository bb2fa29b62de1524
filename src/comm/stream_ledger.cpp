#include "comm/stream_ledger.hpp"

#include <cassert>
#include <mutex>

namespace lcr::comm {

void StreamLedger::arm(std::uint32_t id, int num_hosts,
                       std::size_t expected_peers) {
  std::lock_guard<rt::Spinlock> guard(lock_);
  const auto n = static_cast<std::size_t>(num_hosts);
  id_ = id;
  total_.assign(n, -1);
  got_.assign(n, 0);
  direct_expected_.assign(n, 0);
  direct_got_.assign(n, 0);
  finished_.assign(n, 0);
  peers_remaining_ = expected_peers;
  complete_.store(peers_remaining_ == 0, std::memory_order_release);
}

void StreamLedger::note_chunk(int src, const ChunkHeader& header) {
  std::lock_guard<rt::Spinlock> guard(lock_);
  const auto s = static_cast<std::size_t>(src);
  if (header.num_chunks != 0) {
    total_[s] = static_cast<std::int32_t>(header.num_chunks);
    // Header-only tails reuse base_pos as the peer's direct-put count (data
    // chunks need the field as a record offset, tails never do).
    if (header.payload_bytes == 0)
      direct_expected_[s] = static_cast<std::int32_t>(header.base_pos);
  }
  ++got_[s];
  check_peer(s);
}

void StreamLedger::note_direct(int src) {
  std::lock_guard<rt::Spinlock> guard(lock_);
  const auto s = static_cast<std::size_t>(src);
  ++direct_got_[s];
  check_peer(s);
}

void StreamLedger::check_peer(std::size_t s) {
  // total_ stays -1 until the tail lands, which also fixes the direct
  // ledger; direct_got_ may run ahead of direct_expected_ until then.
  if (finished_[s] != 0 || total_[s] < 0 || got_[s] != total_[s] ||
      direct_got_[s] < direct_expected_[s])
    return;
  finished_[s] = 1;
  assert(peers_remaining_ > 0);
  if (--peers_remaining_ == 0)
    complete_.store(true, std::memory_order_release);
}

}  // namespace lcr::comm
