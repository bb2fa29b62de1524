// Cooperative user-level-thread (fiber) scheduler for simulated hosts.
//
// Scale-out past ~16 simulated hosts is impossible when every host is an OS
// thread group: 256 hosts x (host-main + comm + compute) threads oversubscribe
// the box by two orders of magnitude and the kernel scheduler thrashes. This
// scheduler multiplexes those "threads" as cooperative fibers over a small
// fixed worker pool (min(hardware threads, hosts)), the fult model the ROADMAP
// calls for and the modern LCI runtime is built around.
//
// Model:
//   * A Scheduler owns a set of workers. run() turns the calling thread into
//     worker 0 and returns when every spawned fiber has finished; additional
//     workers are OS threads that live for the duration of run().
//   * Fibers are spawned with ult::spawn() (from a fiber) or
//     Scheduler::spawn() (from the owning thread before/around run()). Each
//     fiber owns an mmap'd stack with a guard page below it.
//   * Scheduling is cooperative: fibers run until they call ult::yield(),
//     ult::park(), or return. There is no preemption, which is exactly why
//     every blocking spin loop in the repo must funnel through rt::Backoff /
//     rt::thread_yield() (which yield the fiber) instead of burning
//     cpu_relax — see DESIGN.md §16.
//   * park()/notify() is the blocking primitive: park() suspends the current
//     fiber until some other fiber or OS thread calls notify() on it. A
//     notify that races ahead of the park is remembered (the park returns
//     immediately), like a binary semaphore.
//   * Fiber-local storage (fls_*) re-keys state that used to be thread_local
//     (telemetry trace rings, serializer scratch, lid decode caches) by
//     simulated-host identity instead of OS-thread identity.
//
// Locking rule (DESIGN.md §16): never yield or park while holding a lock
// whose waiters block their OS thread (std::mutex): the waiter would put the
// whole worker to sleep, possibly with the holder queued on it. A critical
// section that can yield (it reaches rt::Backoff, e.g. through a contended
// nested rt::Spinlock) must be guarded by an rt::Spinlock, whose waiters
// yield their fiber instead.
//
// The context switch is a hand-rolled x86-64 System V switch (callee-saved
// GPRs + mxcsr/x87 control word + rsp). ASan fiber annotations
// (__sanitizer_start_switch_fiber) and the TSan fiber API
// (__tsan_switch_to_fiber) keep both sanitizers accurate across switches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace lcr::ult {

struct Task;           // opaque outside ult.cpp
struct SchedulerImpl;  // opaque outside ult.cpp
class Scheduler;

/// Aggregate scheduler statistics. Exported as sched.* telemetry by the
/// cluster's ULT run path (CI gates on their presence).
struct SchedStats {
  std::uint64_t spawns = 0;       ///< fibers created
  std::uint64_t switches = 0;     ///< context switches into a fiber
  std::uint64_t yields = 0;       ///< yields that actually switched out
  std::uint64_t yields_fast = 0;  ///< yields with nothing else runnable
  std::uint64_t steals = 0;       ///< tasks taken from another worker
  std::uint64_t parks = 0;        ///< fibers suspended in park()
  std::uint64_t notifies = 0;     ///< notify() calls
};

/// True when the calling code is running on a ULT fiber.
bool on_fiber() noexcept;

/// The currently running fiber (nullptr off-fiber).
Task* current() noexcept;

/// Simulated-host id attached to the current fiber (child fibers inherit it
/// from their spawner), or -1 off-fiber / untagged. Used to re-key state that
/// must attribute to the simulated host rather than the OS worker.
int current_host() noexcept;

/// Cooperatively yield the current fiber. Off-fiber this is a no-op (callers
/// that want an OS yield off-fiber use rt::thread_yield(), which already
/// falls back to std::this_thread::yield()).
void yield() noexcept;

/// yield() if on a fiber; returns false off-fiber so the caller can fall
/// back to an OS-level yield. This is the hook rt::thread_yield() uses to
/// make every Backoff-based spin loop in the repo scheduler-aware.
bool maybe_yield() noexcept;

/// Suspend the current fiber until notify(). A notify that already happened
/// is consumed and park() returns immediately. Must be called on a fiber.
void park() noexcept;

/// Make a parked fiber runnable. Safe from any fiber or OS thread. A notify
/// delivered while `t` is running is remembered for its next park().
void notify(Task* t) noexcept;

/// Spawn a fiber on the current fiber's scheduler, inheriting the spawner's
/// host tag. Must be called on a fiber. The returned Task* stays valid until
/// the scheduler is destroyed (tasks are arena-kept; stacks are released as
/// soon as the fiber finishes).
Task* spawn(std::function<void()> fn);

/// True once `t` has finished running.
bool done(const Task* t) noexcept;

/// Wait for `t` to finish: yields while on a fiber, OS-yields otherwise.
void join(Task* t) noexcept;

// --- Fiber-local storage -------------------------------------------------
// Fixed small slot table. Slots are process-global; values are per-fiber.
// The destructor (if any) runs on the worker when the fiber finishes.

using FlsDestructor = void (*)(void*);

inline constexpr int kMaxFlsSlots = 8;

/// Allocate a process-global fls slot. Aborts if the table is exhausted.
int fls_alloc(FlsDestructor dtor) noexcept;

/// Current fiber's value for `slot` (nullptr off-fiber or when unset).
void* fls_get(int slot) noexcept;

/// Set the current fiber's value for `slot`. No-op off-fiber.
void fls_set(int slot, void* value) noexcept;

// --- Scheduler -----------------------------------------------------------

struct SchedulerConfig {
  /// Worker (OS thread) count; 0 = min(hardware_concurrency, workers_hint).
  std::size_t workers = 0;
  /// Hint for the 0-default above, typically the host count. 0 = unbounded.
  std::size_t workers_hint = 0;
  /// Usable fiber stack bytes; 0 = default (LCR_ULT_STACK env override;
  /// larger default under ASan/TSan, whose instrumented frames are fatter).
  std::size_t stack_bytes = 0;
};

class Scheduler {
 public:
  explicit Scheduler(SchedulerConfig cfg = {});
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Spawn a fiber tagged with simulated-host `host`. Callable from the
  /// owning thread (before or between run() calls) or from a fiber of this
  /// scheduler. Thread-safe.
  Task* spawn(std::function<void()> fn, int host = -1);

  /// The calling thread becomes worker 0 and runs fibers until every spawned
  /// fiber (including ones spawned while running) has finished. Spawns
  /// workers-1 helper OS threads for the duration of the call.
  void run();

  std::size_t workers() const noexcept;

  /// Statistics summed across workers. Exact after run() returns.
  SchedStats stats() const noexcept;

 private:
  std::unique_ptr<SchedulerImpl> impl_;
};

}  // namespace lcr::ult
