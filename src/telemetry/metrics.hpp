// Telemetry pillar 1: the metrics registry.
//
// A Registry is a named collection of monotonic counters and log2-scale
// histograms. Metrics come in two flavours:
//
//   * owned metrics - Counter / Histogram objects interned by name via
//     counter(name) / histogram(name); increments are lock-free (striped
//     per-thread slots for counters, atomic buckets for histograms).
//   * probes - views of std::atomic<u64> fields owned by an existing
//     *Stats struct (EndpointStats, QueueStats, CommStats, ...). The owner
//     registers {name, &field} pairs once at construction and keeps
//     incrementing its own atomics; the registry only reads them at
//     snapshot time. Registration is RAII: dropping the handle removes the
//     probes, so a stats struct can never be read after it died.
//
// Multiple probes may share one name (e.g. every endpoint registers
// "fabric.sends"); snapshot() and sum() aggregate across them, which is what
// turns per-host stats structs into cluster-wide totals without any
// hand-written copy loops.
//
// Scoping: each simulated Fabric owns a Registry for everything riding on
// it (the runner reads cluster.fabric().telemetry()); Registry::global()
// exists for fabric-less users and tests.
//
// Thread-safety: interning/registration/snapshot take an internal mutex
// (cold paths); Counter::add and Histogram::record are lock-free.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace lcr::telemetry {

/// Monotonic counter with cache-line-striped slots: concurrent add() from
/// many threads never contends on one line; value() sums the stripes.
class Counter {
 public:
  static constexpr std::size_t kStripes = 16;

  void add(std::uint64_t n = 1) noexcept {
    slots_[stripe_index()].v.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Slot& s : slots_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

  void reset() noexcept {
    for (Slot& s : slots_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> v{0};
  };

  static std::size_t stripe_index() noexcept;

  Slot slots_[kStripes];
};

/// Log2-bucketed histogram: bucket 0 holds the value 0, bucket i >= 1 holds
/// [2^(i-1), 2^i - 1]. Covers the full u64 range in 64 buckets (the tail
/// bucket absorbs everything >= 2^62), which fits message sizes, queue
/// depths and nanosecond latencies alike.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  static std::size_t bucket_of(std::uint64_t v) noexcept {
    const std::size_t b = static_cast<std::size_t>(std::bit_width(v));
    return b < kBuckets ? b : kBuckets - 1;
  }

  /// Inclusive lower bound of bucket i.
  static std::uint64_t bucket_lo(std::size_t i) noexcept {
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
  }

  void record(std::uint64_t v) noexcept {
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  std::uint64_t bucket(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Smallest bucket lower bound such that >= fraction q of samples fall at
  /// or below the bucket (coarse log2 quantile; exact enough for dashboards).
  std::uint64_t quantile_lo(double q) const noexcept;

  void reset() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// A named view of an atomic counter owned elsewhere.
struct Probe {
  std::string name;
  std::atomic<std::uint64_t>* value = nullptr;
};

class Registry;

/// RAII handle for a set of probes; unregisters on destruction. Movable.
class Registration {
 public:
  Registration() = default;
  Registration(Registration&& other) noexcept { *this = std::move(other); }
  Registration& operator=(Registration&& other) noexcept {
    if (this != &other) {
      release();
      registry_ = other.registry_;
      token_ = other.token_;
      other.registry_ = nullptr;
      other.token_ = 0;
    }
    return *this;
  }
  ~Registration() { release(); }

  Registration(const Registration&) = delete;
  Registration& operator=(const Registration&) = delete;

  void release();

 private:
  friend class Registry;
  Registration(Registry* registry, std::uint64_t token)
      : registry_(registry), token_(token) {}

  Registry* registry_ = nullptr;
  std::uint64_t token_ = 0;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Process-wide default instance (fabric-less users, tests).
  static Registry& global();

  /// Interns an owned counter / histogram by name. References stay valid for
  /// the registry's lifetime; hot paths should cache them.
  Counter& counter(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Registers external probes; the returned handle removes them when
  /// destroyed. Probe pointers must outlive the handle.
  [[nodiscard]] Registration register_probes(std::vector<Probe> probes);

  /// Sum of every probe and owned counter named `name`.
  std::uint64_t sum(std::string_view name) const;

  /// All metrics by name: owned counters and probes aggregated per name,
  /// plus "<name>.count" / "<name>.sum" entries per histogram.
  std::map<std::string, std::uint64_t> snapshot() const;

  /// Zeroes every owned counter and histogram *and* every registered probe
  /// (the probes' owners see their atomics reset). snapshot() after reset()
  /// with no traffic in between reports all zeroes.
  void reset();

 private:
  friend class Registration;
  void unregister(std::uint64_t token);

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::uint64_t, std::vector<Probe>> probe_sets_;
  std::uint64_t next_token_ = 1;
};

}  // namespace lcr::telemetry
