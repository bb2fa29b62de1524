// Wall-clock timing helpers used by engines and benchmarks. now_ns() is the
// runtime's one time source: Timer, spin_for_ns and every span read it.
#pragma once

#include <chrono>
#include <cstdint>

namespace lcr::rt {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since an arbitrary epoch; monotonic.
inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Simple start/elapsed stopwatch.
class Timer {
 public:
  Timer() : start_(now_ns()) {}
  void reset() noexcept { start_ = now_ns(); }
  std::uint64_t elapsed_ns() const noexcept { return now_ns() - start_; }
  double elapsed_s() const noexcept {
    return static_cast<double>(elapsed_ns()) * 1e-9;
  }
  double elapsed_ms() const noexcept {
    return static_cast<double>(elapsed_ns()) * 1e-6;
  }
  double elapsed_us() const noexcept {
    return static_cast<double>(elapsed_ns()) * 1e-3;
  }

 private:
  std::uint64_t start_;
};

}  // namespace lcr::rt
