// Unit tests for the concurrency runtime primitives.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "runtime/barrier.hpp"
#include "runtime/bitset.hpp"
#include "runtime/mem_tracker.hpp"
#include "runtime/mpmc_queue.hpp"
#include "runtime/rng.hpp"
#include "runtime/spinlock.hpp"
#include "runtime/thread_team.hpp"
#include "runtime/timer.hpp"

namespace lcr {
namespace {

// ---------------------------------------------------------------------------
// MpmcQueue
// ---------------------------------------------------------------------------

TEST(MpmcQueue, PushPopSingleThread) {
  rt::MpmcQueue<int> q(8);
  EXPECT_FALSE(q.try_pop().has_value());
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_EQ(q.try_pop().value(), 1);
  EXPECT_EQ(q.try_pop().value(), 2);
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(MpmcQueue, CapacityRoundsUpToPowerOfTwo) {
  rt::MpmcQueue<int> q(5);
  EXPECT_EQ(q.capacity(), 8u);
}

TEST(MpmcQueue, FullQueueRejectsPush) {
  rt::MpmcQueue<int> q(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.try_push(i));
  EXPECT_FALSE(q.try_push(99));
  EXPECT_EQ(q.try_pop().value(), 0);
  EXPECT_TRUE(q.try_push(99));
}

TEST(MpmcQueue, FifoOrderPreserved) {
  rt::MpmcQueue<int> q(64);
  for (int i = 0; i < 64; ++i) ASSERT_TRUE(q.try_push(i));
  for (int i = 0; i < 64; ++i) EXPECT_EQ(q.try_pop().value(), i);
}

TEST(MpmcQueue, ConcurrentProducersConsumers) {
  constexpr int kProducers = 3;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 2000;
  rt::MpmcQueue<int> q(256);
  std::atomic<int> consumed{0};
  std::atomic<long long> sum{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int v = p * kPerProducer + i;
        while (!q.try_push(v)) std::this_thread::yield();
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (consumed.load() < kProducers * kPerProducer) {
        if (auto v = q.try_pop()) {
          sum.fetch_add(*v);
          consumed.fetch_add(1);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const long long n = kProducers * kPerProducer;
  EXPECT_EQ(consumed.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

// ---------------------------------------------------------------------------
// Spinlock / Barrier
// ---------------------------------------------------------------------------

TEST(Spinlock, MutualExclusion) {
  rt::Spinlock lock;
  long long counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        lock.lock();
        ++counter;
        lock.unlock();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, static_cast<long long>(kThreads) * kIters);
}

TEST(Spinlock, TryLock) {
  rt::Spinlock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(SenseBarrier, SynchronizesPhases) {
  constexpr std::size_t kThreads = 4;
  rt::SenseBarrier barrier(kThreads);
  std::atomic<int> phase_counts[3] = {{0}, {0}, {0}};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int phase = 0; phase < 3; ++phase) {
        phase_counts[phase].fetch_add(1);
        barrier.arrive_and_wait();
        // After the barrier, everyone must have bumped this phase.
        EXPECT_EQ(phase_counts[phase].load(), static_cast<int>(kThreads));
        barrier.arrive_and_wait();
      }
    });
  }
  for (auto& t : threads) t.join();
}

// ---------------------------------------------------------------------------
// ThreadTeam
// ---------------------------------------------------------------------------

TEST(ThreadTeam, RunExecutesAllThreads) {
  rt::ThreadTeam team(3);
  std::atomic<int> count{0};
  std::set<std::size_t> tids;
  rt::Spinlock lock;
  team.run([&](std::size_t tid) {
    count.fetch_add(1);
    std::lock_guard<rt::Spinlock> guard(lock);
    tids.insert(tid);
  });
  EXPECT_EQ(count.load(), 3);
  EXPECT_EQ(tids, (std::set<std::size_t>{0, 1, 2}));
}

TEST(ThreadTeam, ParallelForCoversRange) {
  rt::ThreadTeam team(4);
  std::vector<std::atomic<int>> hits(1000);
  team.parallel_for(0, 1000, [&](std::size_t i) { hits[i].fetch_add(1); },
                    16);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadTeam, ParallelChunksCoversRangeOnce) {
  rt::ThreadTeam team(2);
  std::vector<std::atomic<int>> hits(500);
  team.parallel_chunks(
      0, 500,
      [&](std::size_t lo, std::size_t hi, std::size_t) {
        for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
      },
      64);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadTeam, SingleThreadTeamRunsInline) {
  rt::ThreadTeam team(1);
  EXPECT_EQ(team.size(), 1u);
  int x = 0;
  team.run([&](std::size_t) { x = 42; });
  EXPECT_EQ(x, 42);
}

TEST(ThreadTeam, ReusableAcrossManyRuns) {
  rt::ThreadTeam team(3);
  std::atomic<int> total{0};
  for (int r = 0; r < 50; ++r)
    team.run([&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 150);
}

// ---------------------------------------------------------------------------
// ConcurrentBitset
// ---------------------------------------------------------------------------

TEST(ConcurrentBitset, SetTestReset) {
  rt::ConcurrentBitset bits(200);
  EXPECT_FALSE(bits.test(100));
  EXPECT_TRUE(bits.set(100));
  EXPECT_FALSE(bits.set(100));  // already set
  EXPECT_TRUE(bits.test(100));
  bits.reset(100);
  EXPECT_FALSE(bits.test(100));
}

TEST(ConcurrentBitset, CountAndForEach) {
  rt::ConcurrentBitset bits(300);
  std::set<std::size_t> expected{0, 63, 64, 65, 128, 299};
  for (auto i : expected) bits.set(i);
  EXPECT_EQ(bits.count(), expected.size());
  std::set<std::size_t> seen;
  bits.for_each([&](std::size_t i) { seen.insert(i); });
  EXPECT_EQ(seen, expected);
}

TEST(ConcurrentBitset, ForEachInRangeRespectsBounds) {
  rt::ConcurrentBitset bits(256);
  for (std::size_t i = 0; i < 256; ++i) bits.set(i);
  std::size_t count = 0;
  bits.for_each_in_range(60, 200, [&](std::size_t i) {
    EXPECT_GE(i, 60u);
    EXPECT_LT(i, 200u);
    ++count;
  });
  EXPECT_EQ(count, 140u);
}

TEST(ConcurrentBitset, ConcurrentSetsAreAllRecorded) {
  rt::ConcurrentBitset bits(10000);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < 10000; i += 4)
        bits.set(i);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bits.count(), 10000u);
}

// ---------------------------------------------------------------------------
// MemTracker
// ---------------------------------------------------------------------------

TEST(MemTracker, TracksCurrentAndPeak) {
  rt::MemTracker tracker;
  tracker.on_alloc(100);
  tracker.on_alloc(200);
  EXPECT_EQ(tracker.current(), 300u);
  EXPECT_EQ(tracker.peak(), 300u);
  tracker.on_free(100);
  EXPECT_EQ(tracker.current(), 200u);
  EXPECT_EQ(tracker.peak(), 300u);  // peak sticks
  tracker.on_alloc(50);
  EXPECT_EQ(tracker.peak(), 300u);
  EXPECT_EQ(tracker.total_allocated(), 350u);
  EXPECT_EQ(tracker.alloc_count(), 3u);
}

TEST(MemTracker, ResetClearsEverything) {
  rt::MemTracker tracker;
  tracker.on_alloc(64);
  tracker.reset();
  EXPECT_EQ(tracker.current(), 0u);
  EXPECT_EQ(tracker.peak(), 0u);
}

TEST(MemTracker, TrackedAllocRaii) {
  rt::MemTracker tracker;
  {
    rt::TrackedAlloc a(tracker, 512);
    EXPECT_EQ(tracker.current(), 512u);
  }
  EXPECT_EQ(tracker.current(), 0u);
  EXPECT_EQ(tracker.peak(), 512u);
}

// ---------------------------------------------------------------------------
// RNG determinism
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  rt::Xoshiro256 a(123), b(123), c(124);
  bool all_equal = true;
  bool any_diff_c = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a();
    all_equal &= (va == b());
    any_diff_c |= (va != c());
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff_c);
}

TEST(Rng, BelowStaysInRange) {
  rt::Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(37), 37u);
}

TEST(Rng, UniformInUnitInterval) {
  rt::Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Timer, MeasuresElapsedTime) {
  rt::Timer t;
  rt::spin_for_ns(2'000'000);  // 2ms
  EXPECT_GE(t.elapsed_ns(), 1'500'000u);
}

}  // namespace
}  // namespace lcr
