// Future-phase stash shared by both engines (DESIGN.md §12, §18): chunks
// and direct-put signals from a peer that raced ahead into a later phase
// (Abelian) or round (Gemini) wait here, keyed by phase id, until the
// engine's ledger reaches their phase. Bounded by a phase window and a cap;
// every drop is counted.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "comm/backend.hpp"
#include "comm/message.hpp"
#include "runtime/spinlock.hpp"

namespace lcr::comm {

/// How many phases ahead of the current one a chunk or signal may be and
/// still be stashed. Every app round ends in an OOB collective and runs at
/// most a reduce + a broadcast phase, so a peer races at most a couple of
/// phases ahead; anything further is a fuzzed or corrupted phase id.
inline constexpr std::uint32_t kStashPhaseWindow = 8;

/// Default bound on stashed chunks (and, separately, on stashed signals).
inline constexpr std::size_t kDefaultStashCap = 8192;

/// The engine's own counters the stash reports to; any may be null.
struct StashCounters {
  std::atomic<std::uint64_t>* peak = nullptr;  ///< most chunks held at once
  std::atomic<std::uint64_t>* chunk_drops = nullptr;
  std::atomic<std::uint64_t>* signal_drops = nullptr;
};

/// Thread-safe; every call may race with every other.
class PhaseStash {
 public:
  PhaseStash(std::size_t cap, StashCounters counters)
      : cap_(cap), counters_(counters) {}

  /// Parks chunk `msg` of phase `phase_id` while the engine is at `current`.
  /// `msg.release()` runs here in every case and the stash keeps a copy: a
  /// parked chunk that pinned its rx packet could fill a straggler's whole
  /// receive window and deadlock the cluster (DESIGN.md §18). False = the
  /// chunk was dropped (stale, beyond the window, or the stash is full).
  bool park(InMessage&& msg, std::uint32_t phase_id, std::uint32_t current);

  /// Parks a direct-put signal; false = dropped.
  bool park(const DirectSignal& sig, std::uint32_t current);

  /// Pops a parked chunk of phase `current`; its release() frees the copy.
  bool pop(std::uint32_t current, InMessage& out);
  bool pop(std::uint32_t current, DirectSignal& out);

  /// Drops everything parked for phases behind `current`.
  void purge(std::uint32_t current);

 private:
  static bool in_window(std::uint32_t phase, std::uint32_t current) noexcept {
    return phase > current && phase - current <= kStashPhaseWindow;
  }
  static void count(std::atomic<std::uint64_t>* counter,
                    std::uint64_t n = 1) noexcept {
    if (counter != nullptr && n != 0)
      counter->fetch_add(n, std::memory_order_relaxed);
  }

  const std::size_t cap_;
  const StashCounters counters_;
  rt::Spinlock lock_;
  std::map<std::uint32_t, std::deque<InMessage>> chunks_;  // guarded by lock_
  std::size_t chunk_count_ = 0;                            // guarded by lock_
  std::vector<DirectSignal> signals_;                      // guarded by lock_
  // signals_.size(), read without the lock: the receive path polls for a
  // stashed signal on every step, and there almost never is one.
  std::atomic<std::size_t> signal_count_{0};
};

}  // namespace lcr::comm
