// Out-of-band descriptor exchange and the receive-side landing-region table
// of the direct-write path (DESIGN.md §15).
//
// Real clusters exchange RMA region descriptors (rkeys) through the job
// launcher / PMI layer. The simulated cluster's stand-in is this directory:
// a target host registers a per-source region with its backend and publishes
// the resulting descriptor under (target, src, pattern_key); an origin looks
// the descriptor up right before a dense round and falls back to the
// two-sided path on a miss. Generations are handed out by the directory so
// every registration cluster-wide carries a unique, monotonically increasing
// epoch tag: a put built against a retracted descriptor can always be told
// apart from one aimed at the live registration, even if the target reused
// the same buffer address.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <utility>

#include "comm/backend.hpp"
#include "comm/message.hpp"
#include "runtime/mem_tracker.hpp"
#include "runtime/spinlock.hpp"

namespace lcr::comm {

// The put notification's immediates carry the completion-tracking state so
// the target never reads a header to account a put: imm = (generation <<
// 32) | phase_id, imm2 = (pattern_key << 32) | bytes.
inline std::uint64_t pack_direct_imm(std::uint32_t generation,
                                     std::uint32_t phase_id) noexcept {
  return (static_cast<std::uint64_t>(generation) << 32) | phase_id;
}

inline std::uint64_t pack_direct_imm2(std::uint32_t pattern_key,
                                      std::uint32_t bytes) noexcept {
  return (static_cast<std::uint64_t>(pattern_key) << 32) | bytes;
}

inline DirectSignal unpack_direct_signal(int src, std::uint64_t imm,
                                         std::uint64_t imm2) noexcept {
  DirectSignal sig;
  sig.src = src;
  sig.generation = static_cast<std::uint32_t>(imm >> 32);
  sig.phase_id = static_cast<std::uint32_t>(imm);
  sig.pattern_key = static_cast<std::uint32_t>(imm2 >> 32);
  sig.bytes = static_cast<std::uint32_t>(imm2);
  return sig;
}

class DirectDirectory {
 public:
  /// Hands out the next cluster-unique generation tag (starts at 1; 0 means
  /// "never registered" and is rejected by every validator).
  std::uint32_t next_generation() noexcept;

  /// Publishes `region` as the put target on host `target` for origin `src`
  /// under `pattern_key`, replacing any previous registration (a rebuilt
  /// engine republishes with a fresh generation).
  void publish(int target, int src, std::uint32_t pattern_key,
               const DirectRegion& region);

  /// Origin-side lookup; false = not (yet) published, use two-sided.
  bool lookup(int target, int src, std::uint32_t pattern_key,
              DirectRegion& out) const;

  /// Removes the registration, but only if it still carries `generation` -
  /// a stale retract (an old engine tearing down after its successor
  /// already republished) must not erase the live descriptor.
  void retract(int target, int src, std::uint32_t pattern_key,
               std::uint32_t generation);

  /// Drops every registration targeting `target` (fail-stop cleanup, so
  /// origins stop putting at a dead host's regions immediately).
  void retract_target(int target);

 private:
  using Key = std::tuple<int, int, std::uint32_t>;
  mutable rt::Spinlock lock_;
  std::map<Key, DirectRegion> regions_;
  std::atomic<std::uint32_t> next_generation_{0};
};

/// A host's direct-write landing regions, one per (pattern_key, src): the
/// buffer, its backend registration, its tracker charge and its directory
/// entry, for both engines. ensure() and close() run between phases on the
/// host-main thread; land() may run on any receive thread during one. The
/// owner calls close() in its destructor.
class LandingRegions {
 public:
  enum class Verdict : std::uint8_t {
    Accept,   ///< a genuine put; `out` views its frame in place (zero copy)
    Stale,    ///< not aimed at a live registration: drop it uncounted
    Garbled,  ///< a genuine put whose frame does not parse: note it in the
              ///< stream ledger (the sender's tail counts it), drop content
  };

  LandingRegions(DirectDirectory& directory, int host,
                 rt::MemTracker* tracker)
      : directory_(directory), host_(host), tracker_(tracker) {}

  LandingRegions(const LandingRegions&) = delete;
  LandingRegions& operator=(const LandingRegions&) = delete;

  /// Unless it exists, allocates a `capacity`-byte region for peer `src`
  /// under `pattern_key`, registers it with `backend` under a fresh
  /// generation, charges the tracker and publishes it. False when the
  /// backend refuses the registration.
  bool ensure(Backend& backend, std::uint32_t pattern_key, int src,
              std::size_t capacity);

  /// The validation ladder for a signal of the current phase, whose pattern
  /// is `pattern_key`. Stale: no region for (sig.pattern_key, sig.src), a
  /// pattern other than `pattern_key`, a generation other than the region's
  /// (a put that raced a recovery epoch), or `bytes` outside
  /// [kChunkHeaderBytes, capacity]. Garbled: the frame's header fails its
  /// self-check, names another phase, or disagrees with `bytes`. Accept
  /// fills `out` (no release: the region is owned here) and `header`.
  Verdict land(const DirectSignal& sig, std::uint32_t pattern_key,
               InMessage& out, ChunkHeader& header) const;

  /// Tears every region down in the one safe order: retract the directory
  /// entries (origins revert to two-sided on the lookup miss), release the
  /// registrations (tokens are never reused, so in-flight puts resolve
  /// invalid at the fabric), refund the tracker, destroy `backend` (a
  /// retransmitted put already in the endpoint's completion queue writes
  /// region memory until the backend's final pump), then free the buffers.
  void close(std::unique_ptr<Backend>& backend);

 private:
  struct Region {
    std::unique_ptr<std::byte[]> buf;
    DirectRegion region;
  };
  using Key = std::pair<std::uint32_t, int>;  // (pattern_key, src)

  DirectDirectory& directory_;
  const int host_;
  rt::MemTracker* const tracker_;
  std::map<Key, Region> regions_;
};

}  // namespace lcr::comm
