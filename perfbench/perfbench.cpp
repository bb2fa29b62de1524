// Repository benchmark program (see README.md in this directory).
//
// Drives the runtime from outside through the bench::run_app facade: one
// query is one run_app call on a 4-host simulated cluster whose hosts run as
// ULT fibers. Every query is validated against the sequential references.
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it prints
// the per-layer metrics, gathered from standalone layer probes and from a
// loop of queries run with span tracing on, and writes a Chrome trace.
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {...}}
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "abelian/cluster.hpp"
#include "abelian/engine.hpp"
#include "abelian/sync.hpp"
#include "apps/reference.hpp"
#include "bench_support/runner.hpp"
#include "comm/backend.hpp"
#include "fabric/fabric.hpp"
#include "gemini/engine.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "runtime/bitset.hpp"
#include "runtime/mem_tracker.hpp"
#include "telemetry/trace.hpp"

namespace {

using namespace lcr;
using Clock = std::chrono::steady_clock;

// ---- Substrate (fixed for every workload) ----------------------------------
constexpr unsigned kScale = 16;
constexpr double kEdgeFactor = 16.0;
constexpr int kHosts = 4;
constexpr std::size_t kThreadsPerHost = 1;
constexpr std::uint32_t kPagerankIters = 20;
constexpr double kPagerankTol = 1e-9;
constexpr std::size_t kRoots = 32;         // seeded query roots per run
constexpr int kWarmupQueries = 3;          // untimed; max reported
constexpr std::size_t kSetupReps = 31;     // set-up probes per run
constexpr int kPartitionReps = 7;
constexpr int kPingPongBatches = 15;
constexpr int kPingsPerBatch = 200;
constexpr int kAllreduceBatches = 15;
constexpr int kAllreducesPerBatch = 100;
constexpr double kQueryDeadlineS = 20.0;   // a query past this has hung
// The timed loop is cut into this many equal windows for query_s.quiet_p50.
constexpr std::size_t kQuietWindows = 10;

struct Workload {
  const char* name;
  const char* app;
  const char* engine;
  comm::BackendKind backend;
};

constexpr Workload kWorkloads[] = {
    {"bfs-lci", "bfs", "abelian", comm::BackendKind::Lci},
    {"pagerank-lci", "pagerank", "abelian", comm::BackendKind::Lci},
    {"bfs-mpi-probe", "bfs", "abelian", comm::BackendKind::MpiProbe},
    {"sssp-gemini-lci", "sssp", "gemini", comm::BackendKind::Lci},
    // Known ULT hangs, kept out of BENCHMARK.json and run only on request;
    // the watchdog turns the hang into a counted failure (see README.md).
    {"repro-sssp-gemini-mpi-probe", "sssp", "gemini",
     comm::BackendKind::MpiProbe},
    {"repro-bfs-mpi-rma", "bfs", "abelian", comm::BackendKind::MpiRma},
};

/// The worker count RunSpec and ClusterOptions pick by default (for the
/// banner).
std::size_t ult_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, kHosts);
}

bool is_gemini(const Workload& w) {
  return std::strcmp(w.engine, "gemini") == 0;
}
bool is_pagerank(const Workload& w) {
  return std::strcmp(w.app, "pagerank") == 0;
}

graph::PartitionPolicy policy_of(const Workload& w) {
  return is_gemini(w) ? graph::PartitionPolicy::BlockedEdgeCut
                      : graph::PartitionPolicy::CartesianVertexCut;
}

abelian::ClusterOptions ult_options() {
  abelian::ClusterOptions o;
  o.host_sched = abelian::ClusterOptions::HostSched::kUlt;
  o.oob_coll = abelian::ClusterOptions::OobColl::kTree;
  return o;
}

bench::RunSpec spec_for(const Workload& w, graph::VertexId root) {
  bench::RunSpec s;
  s.app = w.app;
  s.engine = w.engine;
  s.backend = w.backend;
  s.policy = policy_of(w);
  s.hosts = kHosts;
  s.threads = kThreadsPerHost;
  s.source = root;
  s.pagerank_iters = kPagerankIters;
  s.pagerank_tol = 0.0;
  s.direct_write = comm::DirectWriteMode::Auto;
  s.host_sched = "ult";
  s.oob_coll = "tree";
  return s;
}

// ---- Statistics -------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

// ---- Per-query record -------------------------------------------------------

/// Registry names copied out of each RunResult::telemetry snapshot.
const char* const kRegistryNames[] = {
    "graph.mem_bytes",   "sync.gather_ns",      "sync.apply_ns",
    "sync.direct_sends", "lci.send_retries",    "lci.progress_events",
    "lci.recvs",         "mpilite.irecvs",      "mpilite.iprobes",
    "fabric.bytes_tx",   "fabric.sends",        "fabric.puts",
    "fabric.retries_no_rx", "fabric.retries_throttled",
    "fabric.retries_cq_full", "fabric.cq_polls", "sched.switches",
    "sched.yields",      "sched.parks",         "sched.steals",
    "gemini.messages",   "gemini.bytes",
};

struct Sample {
  double loop_frac = 0.0;  // share of the timed loop elapsed at the end
  double total_s = 0.0;
  double compute_s = 0.0;
  double comm_s = 0.0;
  double peak_mem = 0.0;  // max over hosts
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::map<std::string, double> reg;
};

/// Counts that repeat exactly for a (workload, seed, root); any difference
/// between repeats is drift.
struct ExactCounts {
  std::uint64_t rounds = 0, messages = 0, bytes = 0;
  std::uint64_t fabric_sends = 0, fabric_puts = 0, fabric_bytes_tx = 0;
  std::uint64_t gemini_messages = 0;
  bool operator==(const ExactCounts&) const = default;
};

std::string to_string(const ExactCounts& c) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "rounds=%llu messages=%llu bytes=%llu fabric.sends=%llu "
                "fabric.puts=%llu fabric.bytes_tx=%llu gemini.messages=%llu",
                static_cast<unsigned long long>(c.rounds),
                static_cast<unsigned long long>(c.messages),
                static_cast<unsigned long long>(c.bytes),
                static_cast<unsigned long long>(c.fabric_sends),
                static_cast<unsigned long long>(c.fabric_puts),
                static_cast<unsigned long long>(c.fabric_bytes_tx),
                static_cast<unsigned long long>(c.gemini_messages));
  return buf;
}

ExactCounts exact_of(const bench::RunResult& r) {
  const auto tv = [&r](const char* name) -> std::uint64_t {
    const auto it = r.telemetry.find(name);
    return it == r.telemetry.end() ? 0 : it->second;
  };
  return {r.rounds,          r.messages,          r.bytes,
          tv("fabric.sends"), tv("fabric.puts"), tv("fabric.bytes_tx"),
          tv("gemini.messages")};
}

// ---- Shared run state (read by the hang watchdog) ---------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
  bool integral;
};

struct State {
  std::mutex mu;
  const Workload* w = nullptr;
  bool trace = false;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Sample> untraced;
  std::vector<Sample> traced;
  std::vector<double> warmup_s;
  double setup_s = 0.0;
  double partition_s = 0.0;
  double lci_pingpong_us = 0.0;
  double mpi_pingpong_us = 0.0;
  double allreduce_us = 0.0;
  double cpu_per_wall = 0.0;
  std::uint64_t trace_dropped = 0;
  std::uint64_t drift_flagged = 0;
  std::map<std::size_t, ExactCounts> exact;  // root index -> first counts
};

State g_state;

std::vector<double> column(const std::vector<Sample>& s,
                           const std::function<double(const Sample&)>& f) {
  std::vector<double> out;
  out.reserve(s.size());
  for (const Sample& x : s) out.push_back(f(x));
  return out;
}

double reg_median(const std::vector<Sample>& s, const char* name) {
  return median(column(s, [name](const Sample& x) {
    const auto it = x.reg.find(name);
    return it == x.reg.end() ? 0.0 : it->second;
  }));
}

/// The 25th percentile of the per-window median query times, over
/// kQuietWindows equal windows of the timed loop: the median query time in
/// the quieter quarter of the run. On a shared machine slow phases last
/// seconds and shift every query in them, so this tracks the program while
/// the plain median tracks the machine.
double quiet_p50(const std::vector<Sample>& samples) {
  std::vector<std::vector<double>> windows(kQuietWindows);
  for (const Sample& x : samples) {
    const auto i = static_cast<std::size_t>(
        x.loop_frac * static_cast<double>(kQuietWindows));
    windows[std::min(i, kQuietWindows - 1)].push_back(x.total_s);
  }
  std::vector<double> medians;
  for (auto& w : windows)
    if (!w.empty()) medians.push_back(median(std::move(w)));
  return quantile(std::move(medians), 0.25);
}

/// Builds the metric list for the mode. Caller holds g_state.mu.
std::vector<Metric> metrics_locked() {
  const State& st = g_state;
  const bool gemini = is_gemini(*st.w);
  if (!st.trace) {
    const auto mem =
        column(st.untraced, [](const Sample& x) { return x.peak_mem; });
    return {
        {"query_s.quiet_p50", quiet_p50(st.untraced), "s", false},
        {"setup_s", st.setup_s, "s", false},
        // Mean, not median: on Gemini the peak depends on the root and on
        // timing, and a median over that mixture jumps between its modes.
        {"peak_comm_mem_bytes", mean(mem), "bytes", false},
        {"success_frac",
         st.attempted == 0 ? 0.0
                           : 1.0 - static_cast<double>(st.failed) /
                                       static_cast<double>(st.attempted),
         "ratio", false},
    };
  }

  const std::vector<Sample>& t = st.traced;
  const auto med = [&t](const std::function<double(const Sample&)>& f) {
    return median(column(t, f));
  };
  const double compute = med([](const Sample& x) { return x.compute_s; });
  const double comm = med([](const Sample& x) { return x.comm_s; });
  const double unattributed =
      med([](const Sample& x) { return x.total_s - x.compute_s - x.comm_s; });
  const double rounds = med([](const Sample& x) { return double(x.rounds); });
  const double messages =
      med([](const Sample& x) { return double(x.messages); });
  const double bytes = med([](const Sample& x) { return double(x.bytes); });
  const auto untraced_q =
      column(st.untraced, [](const Sample& x) { return x.total_s; });
  const double untraced_p50 = median(untraced_q);
  const double traced_p50 = med([](const Sample& x) { return x.total_s; });
  const auto r = [&t](const char* name) { return reg_median(t, name); };
  const double retries = r("fabric.retries_no_rx") +
                         r("fabric.retries_throttled") +
                         r("fabric.retries_cq_full");
  const double warm_max =
      st.warmup_s.empty()
          ? 0.0
          : *std::max_element(st.warmup_s.begin(), st.warmup_s.end());
  const double ab = gemini ? 0.0 : 1.0;  // abelian-only metrics
  const double gm = gemini ? 1.0 : 0.0;  // gemini-only metrics
  return {
      // Plain percentiles of the untraced half: on a shared machine they
      // move with its slow phases too much to carry a regression bound.
      {"query_s.p50", untraced_p50, "s", false},
      {"query_s.p90", quantile(untraced_q, 0.9), "s", false},
      {"query_s.mean", mean(untraced_q), "s", false},
      {"query.samples", static_cast<double>(untraced_q.size()), "count", true},
      {"graph.partition_s", st.partition_s, "s", false},
      {"graph.mem_bytes", r("graph.mem_bytes"), "bytes", true},
      {"apps.compute_s", compute, "s", false},
      {"abelian.comm_s", ab * comm, "s", false},
      {"abelian.unattributed_s", ab * unattributed, "s", false},
      {"abelian.rounds", ab * rounds, "count", true},
      {"abelian.messages", ab * messages, "count", true},
      {"abelian.bytes", ab * bytes, "bytes", true},
      {"sync.gather_ns", r("sync.gather_ns"), "ns", true},
      {"sync.apply_ns", r("sync.apply_ns"), "ns", true},
      {"sync.direct_share", ab * ratio(r("sync.direct_sends"), messages),
       "ratio", false},
      {"lci.pingpong_us", st.lci_pingpong_us, "us", false},
      {"lci.send_retries", r("lci.send_retries"), "count", true},
      {"lci.progress_events", r("lci.progress_events"), "count", true},
      {"mpilite.pingpong_us", st.mpi_pingpong_us, "us", false},
      {"mpilite.probe_hit_ratio",
       ratio(r("mpilite.irecvs"), r("mpilite.iprobes")), "ratio", false},
      {"fabric.bytes_tx", r("fabric.bytes_tx"), "bytes", true},
      {"fabric.sends", r("fabric.sends"), "count", true},
      {"fabric.puts", r("fabric.puts"), "count", true},
      {"fabric.retry_ratio",
       ratio(retries, r("fabric.sends") + r("fabric.puts")), "ratio", false},
      {"fabric.cq_poll_hit_ratio", ratio(r("lci.recvs"), r("fabric.cq_polls")),
       "ratio", false},
      {"runtime.allreduce_us", st.allreduce_us, "us", false},
      {"sched.switches", r("sched.switches"), "count", true},
      {"sched.yields", r("sched.yields"), "count", true},
      {"sched.parks", r("sched.parks"), "count", true},
      {"sched.steals", r("sched.steals"), "count", true},
      {"runtime.cpu_per_wall", st.cpu_per_wall, "ratio", false},
      {"runtime.warmup_query_s.max", warm_max, "s", false},
      {"gemini.compute_s", gm * compute, "s", false},
      {"gemini.comm_s", gm * comm, "s", false},
      {"gemini.messages", r("gemini.messages"), "count", true},
      {"gemini.bytes", r("gemini.bytes"), "bytes", true},
      {"telemetry.overhead_frac",
       untraced_p50 == 0.0 ? 0.0 : traced_p50 / untraced_p50 - 1.0, "ratio",
       false},
      {"trace.dropped", static_cast<double>(st.trace_dropped), "count", true},
      {"drift.flagged", static_cast<double>(st.drift_flagged), "count", true},
  };
}

void print_number(std::FILE* f, double v, bool integral) {
  if (integral && std::fabs(v) < 9e15 && v == std::floor(v))
    std::fprintf(f, "%.0f", v);
  else
    std::fprintf(f, "%.10g", v);
}

/// Prints the human-readable summary and the final JSON line. Caller holds
/// g_state.mu.
void emit_locked(bool hung) {
  const State& st = g_state;
  const std::vector<Metric> ms = metrics_locked();
  std::printf("\n%s metrics (%s run)%s:\n", st.w->name,
              st.trace ? "traced" : "untraced", hung ? " [HUNG]" : "");
  for (const Metric& m : ms) {
    std::printf("  %-28s ", m.name.c_str());
    print_number(stdout, m.value, m.integral);
    std::printf(" %s\n", m.unit);
  }
  std::printf("  %-28s %.6g ratio (%zu failed of %zu attempted)\n",
              "failed_frac",
              st.attempted == 0 ? 0.0
                                : static_cast<double>(st.failed) /
                                      static_cast<double>(st.attempted),
              st.failed, st.attempted);

  const bool correct = !hung && st.failed == 0 && st.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              std::max<std::size_t>(st.attempted, 1),
              st.attempted == 0 ? 1 : st.failed);
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ",
                ms[i].name.c_str());
    print_number(stdout, ms[i].value, ms[i].integral);
    std::printf(", \"unit\": \"%s\"}", ms[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---- Hang watchdog ----------------------------------------------------------

/// Bounds every call into the program: a call still running after the
/// deadline counts as one failed query, the result is printed with the
/// failures counted, and the process exits instead of wedging the run.
class Watchdog {
 public:
  Watchdog() : thread_([this] { loop(); }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void arm(const char* what) {
    std::lock_guard<std::mutex> lock(mu_);
    what_ = what;
    deadline_ = Clock::now() +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(kQueryDeadlineS));
    armed_ = true;
    cv_.notify_all();
  }
  void disarm() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = false;
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      if (!armed_) {
        cv_.wait(lock, [this] { return stop_ || armed_; });
        continue;
      }
      if (cv_.wait_until(lock, deadline_, [this] { return stop_ || !armed_; }))
        continue;
      const std::string what = what_;
      lock.unlock();
      std::fprintf(stderr,
                   "perfbench: %s exceeded %.0f s; counting it failed\n",
                   what.c_str(), kQueryDeadlineS);
      {
        std::lock_guard<std::mutex> sl(g_state.mu);
        ++g_state.attempted;
        ++g_state.failed;
        emit_locked(/*hung=*/true);
      }
      std::_Exit(0);
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool armed_ = false;
  std::string what_;
  Clock::time_point deadline_{};
  std::thread thread_;  // declared last: starts after the members it uses
};

/// Runs fn under the watchdog.
template <typename F>
auto guarded(Watchdog& wd, const char* what, F&& fn) {
  wd.arm(what);
  struct Disarm {
    Watchdog& wd;
    ~Disarm() { wd.disarm(); }
  } disarm{wd};
  return fn();
}

// ---- Trace collection -------------------------------------------------------

/// Sums span durations out of the program's trace rings.
struct TraceSink {
  std::map<std::string, double> span_s;  // "cat/name" -> summed seconds

  /// Adds every recorded span to span_s and counts drops. Leaves the rings
  /// alone: each run_app clears them before its measured region, so after a
  /// query they hold that query alone and after the last one they are what
  /// write_chrome_trace exports.
  void tally() {
    for (const telemetry::TraceEvent& ev : telemetry::collect_trace())
      if (ev.phase == 'X')
        span_s[std::string(ev.cat) + "/" + ev.name] +=
            static_cast<double>(ev.dur_ns) * 1e-9;
    std::lock_guard<std::mutex> lock(g_state.mu);
    g_state.trace_dropped += telemetry::trace_dropped();
  }

  /// tally(), then clears the rings (for spans recorded outside run_app).
  void drain() {
    tally();
    telemetry::reset_trace();
  }
};

/// pid of the benchmark's own spans in the Chrome trace (hosts are 0..3).
constexpr std::uint32_t kBenchPid = 100;

// ---- Layer probes -----------------------------------------------------------

/// Set-up a query pays before run_app's measured region: partition, cluster
/// construction, engine construction and the untimed warm-up sync, ending at
/// the barrier after which the measured region starts. Engine teardown and
/// cluster destruction are excluded.
double probe_setup_once(const graph::Csr& g, const Workload& w) {
  const Clock::time_point t0 = Clock::now();
  std::vector<graph::DistGraph> parts =
      graph::partition(g, kHosts, policy_of(w));
  abelian::Cluster cluster(kHosts, fabric::test_config(), ult_options());
  std::vector<rt::MemTracker> trackers(kHosts);
  std::atomic<double> ready_s{0.0};
  cluster.run([&](int h) {
    const auto hs = static_cast<std::size_t>(h);
    if (is_gemini(w)) {
      gemini::GeminiConfig cfg;
      cfg.comm = w.backend == comm::BackendKind::Lci
                     ? gemini::CommKind::Lci
                     : gemini::CommKind::MpiProbeMulti;
      cfg.compute_threads = kThreadsPerHost;
      cfg.tracker = &trackers[hs];
      gemini::GeminiHost host(cluster, parts[hs], cfg);
      cluster.oob_barrier();
      if (h == 0) ready_s.store(seconds_since(t0));
      cluster.oob_barrier();
      return;
    }
    abelian::EngineConfig cfg;
    cfg.backend = w.backend;
    cfg.backend_options.tracker = &trackers[hs];
    cfg.compute_threads = kThreadsPerHost;
    abelian::HostEngine eng(cluster, parts[hs], cfg);
    const abelian::SyncPlan plan =
        is_pagerank(w) ? abelian::plan_accumulate(policy_of(w))
                       : abelian::plan_push_monotone(policy_of(w));
    rt::ConcurrentBitset clean(eng.graph().num_local);
    const auto warm = [&](auto zero) {
      using Label = decltype(zero);
      std::vector<Label> scratch(eng.graph().num_local, Label{});
      if (plan.do_reduce)
        eng.sync_reduce<Label>(
            scratch.data(), clean, [](Label&, Label) { return false; },
            [](graph::VertexId) {});
      if (plan.do_broadcast)
        eng.sync_broadcast<Label>(scratch.data(), clean,
                                  [](graph::VertexId) {});
    };
    if (is_pagerank(w))
      warm(0.0);
    else
      warm(std::uint32_t{0});
    cluster.oob_barrier();
    if (h == 0) ready_s.store(seconds_since(t0));
    cluster.oob_barrier();
  });
  return ready_s.load();
}

double probe_partition_once(const graph::Csr& g, const Workload& w) {
  const Clock::time_point t0 = Clock::now();
  std::vector<graph::DistGraph> parts =
      graph::partition(g, kHosts, policy_of(w));
  const double s = seconds_since(t0);
  if (parts.size() != static_cast<std::size_t>(kHosts))
    throw std::runtime_error("partition returned the wrong host count");
  return s;
}

/// 8-byte round trip between two ranks through the lease path
/// (acquire / commit / flush / progress / try_recv). Returns median
/// microseconds per round trip over kPingPongBatches batches.
double probe_pingpong(comm::BackendKind kind) {
  fabric::Fabric fab(2, fabric::test_config());
  comm::BackendOptions opts;
  std::unique_ptr<comm::Backend> ends[2] = {
      comm::make_backend(kind, fab, 0, opts),
      comm::make_backend(kind, fab, 1, opts)};
  constexpr std::size_t kBytes = 8;

  const auto one_way = [&](int src, int dst, std::uint64_t token) {
    comm::Backend& tx = *ends[src];
    comm::Backend& rx = *ends[dst];
    comm::BufferLease lease = tx.acquire(dst, kBytes);
    if (!lease) throw std::runtime_error("pingpong: acquire failed");
    std::memcpy(lease.data, &token, kBytes);
    while (!tx.commit(dst, lease, kBytes)) {
      tx.progress();
      rx.progress();
    }
    tx.flush();
    comm::InMessage msg;
    for (;;) {
      tx.progress();
      rx.progress();
      if (rx.try_recv(msg)) break;
    }
    std::uint64_t got = 0;
    if (msg.size != kBytes || msg.src != src)
      throw std::runtime_error("pingpong: malformed message");
    std::memcpy(&got, msg.data, kBytes);
    msg.release();
    if (got != token) throw std::runtime_error("pingpong: payload mismatch");
  };

  std::uint64_t token = 1;
  for (int i = 0; i < 50; ++i, ++token) {  // warm pools and queues
    one_way(0, 1, token);
    one_way(1, 0, token);
  }
  std::vector<double> per_rt_us;
  for (int b = 0; b < kPingPongBatches; ++b) {
    telemetry::Span span("bench", "pingpong_batch", kBenchPid);
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kPingsPerBatch; ++i, ++token) {
      one_way(0, 1, token);
      one_way(1, 0, token);
    }
    per_rt_us.push_back(seconds_since(t0) * 1e6 / kPingsPerBatch);
  }
  for (auto& e : ends) e->end_phase();
  return median(per_rt_us);
}

/// Cluster::oob_allreduce_sum at 4 hosts under ULT; median microseconds per
/// allreduce over kAllreduceBatches batches.
double probe_allreduce() {
  abelian::Cluster cluster(kHosts, fabric::test_config(), ult_options());
  std::vector<double> per_op_us;
  std::uint64_t mismatches = 0;
  cluster.run([&](int h) {
    for (int b = 0; b < kAllreduceBatches; ++b) {
      cluster.oob_barrier();
      const Clock::time_point t0 = Clock::now();
      for (int i = 0; i < kAllreducesPerBatch; ++i) {
        const std::uint64_t got =
            cluster.oob_allreduce_sum(static_cast<std::uint64_t>(h + i));
        // sum over hosts of (h + i) = 0+1+2+3 + 4i
        if (got != 6 + 4 * static_cast<std::uint64_t>(i) && h == 0)
          ++mismatches;
      }
      if (h == 0)
        per_op_us.push_back(seconds_since(t0) * 1e6 / kAllreducesPerBatch);
    }
  });
  if (mismatches != 0) throw std::runtime_error("allreduce: wrong sum");
  return median(per_op_us);
}

// ---- Queries ----------------------------------------------------------------

struct Inputs {
  graph::Csr g;
  std::vector<graph::VertexId> roots;
  std::vector<std::vector<std::uint32_t>> ref_u32;  // per root (bfs / sssp)
  std::vector<double> ref_pr;
};

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  Inputs in;
  graph::GenOptions gen;
  gen.seed = seed;
  gen.make_weights = true;
  in.g = graph::kron(kScale, kEdgeFactor, gen);
  if (is_pagerank(w)) {
    in.roots.push_back(0);  // PageRank ignores the root
    in.ref_pr = apps::reference_pagerank(in.g, 0.85, kPagerankIters, 0.0);
    return in;
  }
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  std::uniform_int_distribution<graph::VertexId> pick(0, in.g.num_nodes() - 1);
  while (in.roots.size() < kRoots) {
    const graph::VertexId v = pick(rng);
    if (in.g.degree(v) >= 1) in.roots.push_back(v);
  }
  for (const graph::VertexId r : in.roots)
    in.ref_u32.push_back(std::strcmp(w.app, "bfs") == 0
                             ? apps::reference_bfs(in.g, r)
                             : apps::reference_sssp(in.g, r));
  return in;
}

bool validate(const Workload& w, const Inputs& in, std::size_t root_idx,
              const bench::RunResult& r) {
  if (is_pagerank(w)) {
    if (r.labels_f64.size() != in.ref_pr.size()) return false;
    for (std::size_t i = 0; i < in.ref_pr.size(); ++i)
      if (!(std::fabs(r.labels_f64[i] - in.ref_pr[i]) <= kPagerankTol))
        return false;
    return true;
  }
  return r.labels_u32 == in.ref_u32[root_idx];
}

/// Runs one query. Returns false when it failed (exception or mismatch).
bool run_query(Watchdog& wd, const Workload& w, const Inputs& in,
               std::size_t root_idx, TraceSink* sink, Sample* out) {
  bench::RunResult r;
  try {
    r = guarded(wd, "query", [&] {
      telemetry::Span span("bench", "run_app", kBenchPid);
      return bench::run_app(in.g, spec_for(w, in.roots[root_idx]));
    });
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: query failed: %s\n", e.what());
    if (sink != nullptr) sink->tally();
    return false;
  }
  if (sink != nullptr) sink->tally();
  if (!validate(w, in, root_idx, r)) {
    std::fprintf(stderr, "perfbench: query root=%u result mismatch\n",
                 in.roots[root_idx]);
    return false;
  }
  out->total_s = r.total_s;
  out->compute_s = r.compute_s;
  out->comm_s = r.comm_s;
  out->rounds = r.rounds;
  out->messages = r.messages;
  out->bytes = r.bytes;
  for (const std::uint64_t m : r.peak_mem)
    out->peak_mem = std::max(out->peak_mem, static_cast<double>(m));
  for (const char* name : kRegistryNames) {
    const auto it = r.telemetry.find(name);
    out->reg[name] = it == r.telemetry.end() ? 0.0 : double(it->second);
  }

  const ExactCounts ec = exact_of(r);
  std::lock_guard<std::mutex> lock(g_state.mu);
  const auto [it, inserted] = g_state.exact.emplace(root_idx, ec);
  if (!inserted && !(it->second == ec)) {
    ++g_state.drift_flagged;
    std::fprintf(stderr, "perfbench: exact-count drift on root %u: %s -> %s\n",
                 in.roots[root_idx], to_string(it->second).c_str(),
                 to_string(ec).c_str());
  }
  return true;
}

/// Query loop: runs queries for `seconds`, cycling through the roots. With
/// `sink` set the queries are the traced ones and their spans go to it. With
/// `setup` set, kSetupReps set-up probes are spread evenly over the loop so
/// their median sees the same machine conditions as the queries. Returns the
/// wall seconds the loop took.
double query_loop(Watchdog& wd, const Workload& w, const Inputs& in,
                  double seconds, std::size_t* next_root, TraceSink* sink,
                  std::vector<double>* setup = nullptr) {
  const Clock::time_point t0 = Clock::now();
  const auto setup_due = [&] {
    return setup != nullptr && setup->size() < kSetupReps &&
           seconds_since(t0) >=
               seconds * static_cast<double>(setup->size()) / kSetupReps;
  };
  for (;;) {
    if (setup_due()) {
      setup->push_back(guarded(wd, "set-up probe",
                               [&] { return probe_setup_once(in.g, w); }));
      continue;
    }
    if (seconds_since(t0) >= seconds) break;
    const std::size_t root_idx = (*next_root)++ % in.roots.size();
    Sample s;
    const bool ok = run_query(wd, w, in, root_idx, sink, &s);
    s.loop_frac = seconds_since(t0) / seconds;
    std::lock_guard<std::mutex> lock(g_state.mu);
    ++g_state.attempted;
    if (!ok) {
      ++g_state.failed;
      continue;
    }
    (sink != nullptr ? g_state.traced : g_state.untraced)
        .push_back(std::move(s));
  }
  return seconds_since(t0);
}

void print_exact_counts(const Inputs& in) {
  std::printf("exact counts per root (first repeat; drift flagged: %llu):\n",
              static_cast<unsigned long long>(g_state.drift_flagged));
  for (const auto& [idx, ec] : g_state.exact)
    std::printf("  root=%u %s\n", in.roots[idx], to_string(ec).c_str());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".bench_out";
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out DIR]\n",
               msg);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v) != 0;
      else if (k == "--out") a.out = v;
      else usage(("unknown argument " + k).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + k).c_str());
    }
  }
  if (!(a.seconds > 0.0 && a.seconds <= 600.0)) usage("--seconds out of range");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads)
    if (args.workload == cand.name) w = &cand;
  if (w == nullptr) usage(("unknown workload '" + args.workload + "'").c_str());

  {
    std::lock_guard<std::mutex> lock(g_state.mu);
    g_state.w = w;
    g_state.trace = args.trace;
  }
  telemetry::set_enabled(false);
  Watchdog wd;

  const Clock::time_point gen_t0 = Clock::now();
  const Inputs in = make_inputs(*w, args.seed);
  std::printf("workload %s seed %llu: kron%u ef%.0f (%u vertices, %llu edges), "
              "%d hosts x %zu compute thread, ULT over %zu workers; inputs "
              "and references in %.2f s\n",
              w->name, static_cast<unsigned long long>(args.seed), kScale,
              kEdgeFactor, in.g.num_nodes(),
              static_cast<unsigned long long>(in.g.num_edges()), kHosts,
              kThreadsPerHost, ult_workers(), seconds_since(gen_t0));

  std::size_t next_root = 0;
  // Warm-up: untimed, but the cold start stays visible through their max.
  for (int i = 0; i < kWarmupQueries; ++i) {
    const std::size_t root_idx = next_root++ % in.roots.size();
    bench::RunResult r;
    bool ok = true;
    try {
      r = guarded(wd, "warm-up query", [&] {
        return bench::run_app(in.g, spec_for(*w, in.roots[root_idx]));
      });
      ok = validate(*w, in, root_idx, r);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: warm-up query failed: %s\n", e.what());
      ok = false;
    }
    std::lock_guard<std::mutex> lock(g_state.mu);
    g_state.warmup_s.push_back(r.total_s);
    if (!ok) {
      ++g_state.attempted;
      ++g_state.failed;
    }
  }

  if (!args.trace) {
    std::vector<double> setup;
    query_loop(wd, *w, in, args.seconds, &next_root, nullptr, &setup);
    std::lock_guard<std::mutex> lock(g_state.mu);
    g_state.setup_s = median(setup);
    print_exact_counts(in);
    emit_locked(false);
    return 0;
  }

  // Traced run: layer probes and half the time in a traced query loop, the
  // other half untraced for the tracing-overhead comparison.
  TraceSink sink;
  telemetry::reset_trace();
  telemetry::set_enabled(true);
  std::vector<double> part;
  for (int i = 0; i < kPartitionReps; ++i) {
    part.push_back(guarded(wd, "partition probe", [&] {
      telemetry::Span span("bench", "graph_partition", kBenchPid);
      return probe_partition_once(in.g, *w);
    }));
    sink.drain();
  }
  const double lci_pp = guarded(wd, "lci ping-pong probe", [] {
    telemetry::Span span("bench", "lci_pingpong", kBenchPid);
    return probe_pingpong(comm::BackendKind::Lci);
  });
  sink.drain();
  const double mpi_pp = guarded(wd, "mpi-probe ping-pong probe", [] {
    telemetry::Span span("bench", "mpilite_pingpong", kBenchPid);
    return probe_pingpong(comm::BackendKind::MpiProbe);
  });
  sink.drain();
  const double allreduce = guarded(wd, "allreduce probe", [] {
    telemetry::Span span("bench", "oob_allreduce", kBenchPid);
    return probe_allreduce();
  });
  sink.drain();
  {
    std::lock_guard<std::mutex> lock(g_state.mu);
    g_state.partition_s = median(part);
    g_state.lci_pingpong_us = lci_pp;
    g_state.mpi_pingpong_us = mpi_pp;
    g_state.allreduce_us = allreduce;
  }
  sink.span_s.clear();  // per-query span totals cover the traced loop only

  telemetry::set_enabled(false);
  query_loop(wd, *w, in, args.seconds / 2, &next_root, nullptr);
  telemetry::reset_trace();
  telemetry::set_enabled(true);
  const double cpu0 = process_cpu_s();
  const double wall =
      query_loop(wd, *w, in, args.seconds / 2, &next_root, &sink);
  const double cpu_per_wall = (process_cpu_s() - cpu0) / wall;
  telemetry::set_enabled(false);

  std::filesystem::create_directories(args.out);
  const std::string trace_path = args.out + "/trace-" + w->name + "-s" +
                                 std::to_string(args.seed) + ".json";
  const bool wrote = telemetry::write_chrome_trace(trace_path);
  std::lock_guard<std::mutex> lock(g_state.mu);
  g_state.cpu_per_wall = cpu_per_wall;
  const std::size_t nq = std::max<std::size_t>(g_state.traced.size(), 1);
  std::printf("span seconds per traced query (%zu queries; Chrome trace "
              "%s%s):\n",
              g_state.traced.size(), trace_path.c_str(),
              wrote ? "" : " NOT WRITTEN");
  for (const auto& [name, s] : sink.span_s)
    std::printf("  %-36s %.6f s\n", name.c_str(), s / static_cast<double>(nq));
  print_exact_counts(in);
  emit_locked(false);
  return 0;
}
