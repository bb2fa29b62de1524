// Seeded, schedule-randomized stress tests for the runtime concurrency
// primitives under the LCI send and receive paths: MpmcQueue, PacketPool.
//
// Every test derives all randomness (payloads, batch sizes, and the
// *schedule* - random yield/spin jitter between operations that shakes out
// interleavings) from one base seed via rt::Rng, so any failure is
// deterministically replayable:
//
//   LCR_STRESS_SEED=0x<seed> ./tests/test_runtime_stress
//
// The seed is printed into every assertion message (SCOPED_TRACE) and on
// stdout at suite start. Designed to run under TSan (moderate op counts,
// no timing assumptions) as well as ASan/UBSan.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "lci/packet.hpp"
#include "runtime/cpu_relax.hpp"
#include "runtime/mpmc_queue.hpp"
#include "runtime/rng.hpp"

namespace lcr {
namespace {

std::uint64_t base_seed() {
  static const std::uint64_t seed = [] {
    const char* env = std::getenv("LCR_STRESS_SEED");
    const std::uint64_t s =
        env != nullptr ? std::strtoull(env, nullptr, 0) : 0xC0FFEE0DDBA11ULL;
    std::printf("[stress] base seed 0x%llx (replay: LCR_STRESS_SEED=0x%llx)\n",
                static_cast<unsigned long long>(s),
                static_cast<unsigned long long>(s));
    return s;
  }();
  return seed;
}

/// Per-(test, thread) seed: deterministic, decorrelated streams.
std::uint64_t derive_seed(std::uint64_t test_salt, std::uint64_t thread_id) {
  return rt::hash64(base_seed() ^ rt::hash64(test_salt) ^
                    rt::hash64(thread_id * 0x9E3779B97F4A7C15ULL + 1));
}

std::string seed_trace(const char* test) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s: replay with LCR_STRESS_SEED=0x%llx",
                test, static_cast<unsigned long long>(base_seed()));
  return std::string(buf);
}

/// Schedule randomization: with probability ~1/4 yield the core, ~1/4 spin a
/// random short burst. On an oversubscribed single-core host the yields are
/// what actually permute thread interleavings.
void jitter(rt::Rng& rng) {
  const std::uint64_t roll = rng.below(8);
  if (roll == 0) {
    rt::thread_yield();
  } else if (roll <= 2) {
    const std::uint64_t spins = rng.below(64);
    for (std::uint64_t i = 0; i < spins; ++i) rt::cpu_pause();
  }
}

// ---------------------------------------------------------------------------
// MpmcQueue: P producers x C consumers. Within one consumer's pop stream,
// each producer's values must appear in increasing order (cells are claimed
// FIFO); globally every value must be seen exactly once.
// ---------------------------------------------------------------------------

void mpmc_stress_round(std::size_t capacity, int prods, int cons,
                       std::uint64_t per_producer, std::uint64_t salt) {
  rt::MpmcQueue<std::uint64_t> queue(capacity);
  const std::uint64_t total =
      per_producer * static_cast<std::uint64_t>(prods);
  std::atomic<std::uint64_t> popped{0};
  // seen[producer][seq]: exactly-once accounting, filled lock-free.
  std::vector<std::vector<std::atomic<std::uint8_t>>> seen(
      static_cast<std::size_t>(prods));
  for (auto& row : seen)
    row = std::vector<std::atomic<std::uint8_t>>(per_producer);

  std::vector<std::thread> threads;
  for (int p = 0; p < prods; ++p) {
    threads.emplace_back([&, p] {
      rt::Rng rng(derive_seed(salt, static_cast<std::uint64_t>(p)));
      for (std::uint64_t i = 0; i < per_producer; ++i) {
        const std::uint64_t value =
            (static_cast<std::uint64_t>(p) << 32) | i;
        while (!queue.try_push(value)) rt::thread_yield();
        if (rng.below(4) == 0) jitter(rng);
      }
    });
  }
  for (int c = 0; c < cons; ++c) {
    threads.emplace_back([&, c] {
      rt::Rng rng(derive_seed(salt, 1000 + static_cast<std::uint64_t>(c)));
      std::vector<std::uint64_t> last(static_cast<std::size_t>(prods), 0);
      std::vector<bool> any(static_cast<std::size_t>(prods), false);
      while (popped.load(std::memory_order_relaxed) < total) {
        std::optional<std::uint64_t> v = queue.try_pop();
        if (!v) {
          rt::thread_yield();
          continue;
        }
        popped.fetch_add(1, std::memory_order_relaxed);
        const auto prod = static_cast<std::size_t>(*v >> 32);
        const std::uint64_t seq = *v & 0xFFFFFFFFu;
        ASSERT_LT(prod, static_cast<std::size_t>(prods));
        ASSERT_LT(seq, per_producer);
        if (any[prod] && seq <= last[prod])
          ADD_FAILURE() << "per-producer order broken in one consumer: "
                        << "producer " << prod << " seq " << seq
                        << " after " << last[prod];
        any[prod] = true;
        last[prod] = seq;
        if (seen[prod][seq].fetch_add(1, std::memory_order_relaxed) != 0)
          ADD_FAILURE() << "duplicate pop: producer " << prod << " seq "
                        << seq;
        if (rng.below(8) == 0) jitter(rng);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(popped.load(), total);
  for (int p = 0; p < prods; ++p)
    for (std::uint64_t i = 0; i < per_producer; ++i)
      if (seen[static_cast<std::size_t>(p)][i].load() != 1) {
        ADD_FAILURE() << "value lost or duplicated: producer " << p
                      << " seq " << i << " count "
                      << int{seen[static_cast<std::size_t>(p)][i].load()};
        return;
      }
}

TEST(MpmcQueueStress, ExactlyOnceAcrossThreadCounts) {
  SCOPED_TRACE(seed_trace("MpmcQueueStress"));
  mpmc_stress_round(/*capacity=*/64, /*prods=*/1, /*cons=*/1, 8000, 0x4D01);
  mpmc_stress_round(/*capacity=*/16, /*prods=*/2, /*cons=*/2, 4000, 0x4D02);
  mpmc_stress_round(/*capacity=*/128, /*prods=*/4, /*cons=*/2, 2000, 0x4D03);
}

TEST(MpmcQueueStress, TinyCapacityBackpressure) {
  SCOPED_TRACE(seed_trace("MpmcQueueStress.Tiny"));
  // Capacity 2 forces constant full/empty transitions - the edge cases of
  // the sequence-number protocol.
  mpmc_stress_round(/*capacity=*/2, /*prods=*/2, /*cons=*/2, 2000, 0x4D04);
}

// ---------------------------------------------------------------------------
// PacketPool: alloc/free storms. Each holder stamps its thread id + a nonce
// into the slab and re-verifies before freeing; a double-allocation (two
// threads holding the same packet) shows up as a stomped stamp. Runs with
// and without the per-thread locality caches.
// ---------------------------------------------------------------------------

void pool_storm_round(std::size_t packets, std::size_t caches, int threads,
                      int iters, std::uint64_t salt) {
  lci::PacketPool pool(packets, /*payload_size=*/64, caches);
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      rt::Rng rng(derive_seed(salt, static_cast<std::uint64_t>(t)));
      std::vector<lci::Packet*> held;
      held.reserve(8);
      for (int i = 0; i < iters && !stop.load(std::memory_order_relaxed);
           ++i) {
        const std::uint64_t want = 1 + rng.below(8);
        while (held.size() < want) {
          lci::Packet* p = pool.alloc();
          if (p == nullptr) break;  // exhausted: non-fatal by contract
          const std::uint64_t stamp =
              (static_cast<std::uint64_t>(t) << 32) | (rng() & 0xFFFFFFFFu);
          std::memcpy(p->data, &stamp, sizeof(stamp));
          // Keep the stamp in the slab's tail too so a partial overwrite
          // is also caught.
          std::memcpy(p->data + 56, &stamp, sizeof(stamp));
          held.push_back(p);
          allocs.fetch_add(1, std::memory_order_relaxed);
        }
        jitter(rng);
        while (!held.empty()) {
          lci::Packet* p = held.back();
          held.pop_back();
          std::uint64_t head, tail;
          std::memcpy(&head, p->data, sizeof(head));
          std::memcpy(&tail, p->data + 56, sizeof(tail));
          if (head != tail || (head >> 32) != static_cast<std::uint64_t>(t)) {
            stop.store(true, std::memory_order_relaxed);
            ADD_FAILURE() << "slab stomped: thread " << t << " head "
                          << head << " tail " << tail
                          << " (double allocation?)";
          }
          pool.free(p);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_GT(allocs.load(), 0u);
  EXPECT_EQ(pool.approx_free(), packets);
}

TEST(PacketPoolStress, AllocFreeStormGlobalPool) {
  SCOPED_TRACE(seed_trace("PacketPoolStress.Global"));
  pool_storm_round(/*packets=*/32, /*caches=*/0, /*threads=*/4,
                   /*iters=*/2000, 0x9001);
}

TEST(PacketPoolStress, AllocFreeStormLocalityCaches) {
  SCOPED_TRACE(seed_trace("PacketPoolStress.Caches"));
  pool_storm_round(/*packets=*/32, /*caches=*/4, /*threads=*/4,
                   /*iters=*/2000, 0x9002);
  pool_storm_round(/*packets=*/8, /*caches=*/8, /*threads=*/8,
                   /*iters=*/1000, 0x9003);
}

}  // namespace
}  // namespace lcr
