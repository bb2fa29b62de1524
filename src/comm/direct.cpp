#include "comm/direct.hpp"

#include <mutex>

namespace lcr::comm {

std::uint32_t DirectDirectory::next_generation() noexcept {
  return next_generation_.fetch_add(1, std::memory_order_relaxed) + 1;
}

void DirectDirectory::publish(int target, int src, std::uint32_t pattern_key,
                              const DirectRegion& region) {
  std::lock_guard<rt::Spinlock> guard(lock_);
  regions_[Key{target, src, pattern_key}] = region;
}

bool DirectDirectory::lookup(int target, int src, std::uint32_t pattern_key,
                             DirectRegion& out) const {
  std::lock_guard<rt::Spinlock> guard(lock_);
  const auto it = regions_.find(Key{target, src, pattern_key});
  if (it == regions_.end()) return false;
  out = it->second;
  return true;
}

void DirectDirectory::retract(int target, int src, std::uint32_t pattern_key,
                              std::uint32_t generation) {
  std::lock_guard<rt::Spinlock> guard(lock_);
  const auto it = regions_.find(Key{target, src, pattern_key});
  if (it != regions_.end() && it->second.generation == generation)
    regions_.erase(it);
}

void DirectDirectory::retract_target(int target) {
  std::lock_guard<rt::Spinlock> guard(lock_);
  for (auto it = regions_.begin(); it != regions_.end();) {
    if (std::get<0>(it->first) == target)
      it = regions_.erase(it);
    else
      ++it;
  }
}

bool LandingRegions::ensure(Backend& backend, std::uint32_t pattern_key,
                            int src, std::size_t capacity) {
  if (regions_.count(Key{pattern_key, src}) != 0) return true;
  Region r;
  r.buf.reset(new std::byte[capacity]);
  r.region = backend.register_direct_region(src, r.buf.get(), capacity,
                                            directory_.next_generation());
  if (!r.region.valid()) return false;
  if (tracker_ != nullptr) tracker_->on_alloc(capacity);
  directory_.publish(host_, src, pattern_key, r.region);
  regions_.emplace(Key{pattern_key, src}, std::move(r));
  return true;
}

LandingRegions::Verdict LandingRegions::land(const DirectSignal& sig,
                                             std::uint32_t pattern_key,
                                             InMessage& out,
                                             ChunkHeader& header) const {
  const auto it = regions_.find(Key{sig.pattern_key, sig.src});
  if (sig.pattern_key != pattern_key || it == regions_.end() ||
      it->second.region.generation != sig.generation ||
      sig.bytes < kChunkHeaderBytes || sig.bytes > it->second.region.capacity)
    return Verdict::Stale;
  out.src = sig.src;
  out.data = it->second.buf.get();
  out.size = sig.bytes;
  out.release = nullptr;
  header = out.header();
  if (!header.valid() || header.phase_id != sig.phase_id ||
      kChunkHeaderBytes + header.payload_bytes != sig.bytes)
    return Verdict::Garbled;
  return Verdict::Accept;
}

void LandingRegions::close(std::unique_ptr<Backend>& backend) {
  for (const auto& [key, r] : regions_) {
    directory_.retract(host_, key.second, key.first, r.region.generation);
    backend->release_direct_region(key.second, r.region);
    if (tracker_ != nullptr) tracker_->on_free(r.region.capacity);
  }
  backend.reset();
  regions_.clear();
}

}  // namespace lcr::comm
