#include "runtime/cpu_relax.hpp"

#include <thread>

#include "runtime/timer.hpp"
#include "runtime/ult.hpp"

namespace lcr::rt {

void thread_yield() noexcept {
  // On a ULT fiber, yielding the OS thread would stall every fiber
  // multiplexed onto this worker — hand the core to a sibling fiber instead.
  // This single hook makes every Backoff-funneled spin loop in the repo
  // (barriers, spinlocks, queue pushes, progress pumps, engine drain waits)
  // scheduler-aware (DESIGN.md §16).
  if (ult::maybe_yield()) return;
  std::this_thread::yield();
}

void spin_for_ns(std::uint64_t ns) noexcept {
  if (ns == 0) return;
  const std::uint64_t deadline = now_ns() + ns;
  while (now_ns() < deadline) cpu_pause();
}

}  // namespace lcr::rt
