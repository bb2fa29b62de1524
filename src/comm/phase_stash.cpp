#include "comm/phase_stash.hpp"

#include <memory>
#include <mutex>

namespace lcr::comm {

bool PhaseStash::park(InMessage&& msg, std::uint32_t phase_id,
                      std::uint32_t current) {
  if (!in_window(phase_id, current)) {
    // Stale or beyond the window. release() recycles the transport
    // resources, which is all the "nack" the reliable fabric needs -
    // delivery already completed at that layer.
    if (msg.release) msg.release();
    count(counters_.chunk_drops);
    return false;
  }
  // Copying frees the rx packet immediately; only chunks from peers running
  // ahead pay for it.
  auto buf = std::make_shared<std::vector<std::byte>>(msg.data,
                                                      msg.data + msg.size);
  InMessage copy;
  copy.src = msg.src;
  copy.data = buf->data();
  copy.size = msg.size;
  copy.release = [buf] {};  // the buffer lives until the entry dies
  if (msg.release) {
    msg.release();
    msg.release = nullptr;
  }
  std::lock_guard<rt::Spinlock> guard(lock_);
  if (chunk_count_ >= cap_) {
    count(counters_.chunk_drops);
    return false;
  }
  chunks_[phase_id].push_back(std::move(copy));
  ++chunk_count_;
  if (counters_.peak != nullptr &&
      chunk_count_ > counters_.peak->load(std::memory_order_relaxed))
    counters_.peak->store(chunk_count_, std::memory_order_relaxed);
  return true;
}

bool PhaseStash::park(const DirectSignal& sig, std::uint32_t current) {
  if (in_window(sig.phase_id, current)) {
    std::lock_guard<rt::Spinlock> guard(lock_);
    if (signals_.size() < cap_) {
      signals_.push_back(sig);
      signal_count_.store(signals_.size(), std::memory_order_release);
      return true;
    }
  }
  count(counters_.signal_drops);
  return false;
}

bool PhaseStash::pop(std::uint32_t current, InMessage& out) {
  std::lock_guard<rt::Spinlock> guard(lock_);
  const auto it = chunks_.find(current);
  if (it == chunks_.end()) return false;
  out = std::move(it->second.front());
  it->second.pop_front();
  if (it->second.empty()) chunks_.erase(it);
  --chunk_count_;
  return true;
}

bool PhaseStash::pop(std::uint32_t current, DirectSignal& out) {
  if (signal_count_.load(std::memory_order_acquire) == 0) return false;
  std::lock_guard<rt::Spinlock> guard(lock_);
  for (auto it = signals_.begin(); it != signals_.end(); ++it) {
    if (it->phase_id == current) {
      out = *it;
      signals_.erase(it);
      signal_count_.store(signals_.size(), std::memory_order_release);
      return true;
    }
  }
  return false;
}

void PhaseStash::purge(std::uint32_t current) {
  std::lock_guard<rt::Spinlock> guard(lock_);
  std::size_t dropped = 0;
  for (auto it = chunks_.begin(); it != chunks_.end() && it->first < current;
       it = chunks_.erase(it))
    dropped += it->second.size();
  chunk_count_ -= dropped;
  count(counters_.chunk_drops, dropped);
  const std::size_t before = signals_.size();
  std::erase_if(signals_, [current](const DirectSignal& sig) {
    return sig.phase_id < current;
  });
  signal_count_.store(signals_.size(), std::memory_order_release);
  count(counters_.signal_drops, before - signals_.size());
}

}  // namespace lcr::comm
