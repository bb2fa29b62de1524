#include "abelian/cluster.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <thread>

#include "runtime/cpu_relax.hpp"
#include "runtime/timer.hpp"
#include "runtime/ult.hpp"
#include "telemetry/flight_recorder.hpp"

namespace lcr::abelian {

namespace {
/// Host identity for the OS-thread scheduling path; the ULT path carries it
/// on the fiber instead (ult::current_host()).
thread_local int tl_cluster_host = -1;
}  // namespace

ClusterOptions ClusterOptions::from_env() {
  ClusterOptions opts;
  if (const char* env = std::getenv("LCR_HOST_SCHED")) {
    if (std::strcmp(env, "ult") == 0) opts.host_sched = HostSched::kUlt;
    else if (std::strcmp(env, "os") == 0) opts.host_sched = HostSched::kOsThreads;
  }
  if (const char* env = std::getenv("LCR_OOB_COLL")) {
    if (std::strcmp(env, "flat") == 0) opts.oob_coll = OobColl::kFlat;
    else if (std::strcmp(env, "tree") == 0) opts.oob_coll = OobColl::kTree;
  }
  if (const char* env = std::getenv("LCR_ULT_WORKERS"))
    opts.ult_workers = static_cast<std::size_t>(std::strtoul(env, nullptr, 10));
  return opts;
}

Cluster::Cluster(int num_hosts, fabric::FabricConfig config,
                 ClusterOptions options)
    : num_hosts_(num_hosts),
      options_(options),
      fabric_(static_cast<std::size_t>(num_hosts), std::move(config)),
      barrier_(static_cast<std::size_t>(num_hosts)),
      tree_barrier_(static_cast<std::size_t>(num_hosts)),
      tree_u64_(static_cast<std::size_t>(num_hosts)),
      tree_double_(static_cast<std::size_t>(num_hosts)),
      membership_(static_cast<std::size_t>(num_hosts)),
      checkpoints_(static_cast<std::size_t>(num_hosts)),
      health_(static_cast<std::size_t>(num_hosts), &fabric_.telemetry()) {
  // Ground-truth kill reports flow fabric -> membership (with the kill
  // logged into the deterministic recovery trace); watchdog suspicions flow
  // reliability channel -> fabric -> membership (state only, never logged).
  fabric_.set_kill_observer([this](fabric::Rank victim) {
    membership_.report_kill(static_cast<int>(victim));
    membership_.log_event({comm::RecoveryEvent::Kind::Kill,
                           static_cast<int>(victim), -1, fabric_.epoch()});
  });
  fabric_.set_suspect_observer([this](fabric::Rank reporter,
                                      fabric::Rank peer) {
    membership_.report_suspect(static_cast<int>(reporter),
                               static_cast<int>(peer));
  });
  rt::CheckpointStats& cs = checkpoints_.stats();
  ckpt_reg_ = fabric_.telemetry().register_probes({
      {"ckpt.saves", &cs.saves},
      {"ckpt.bytes", &cs.bytes},
      {"ckpt.stage_ns", &cs.stage_ns},
      {"ckpt.seal_ns", &cs.seal_ns},
      {"ckpt.restores", &cs.restores},
  });
  member_reg_ = fabric_.telemetry().register_probes({
      {"member.kills", &membership_.kills_counter()},
      {"member.recoveries", &membership_.recoveries_counter()},
      {"member.suspects", &membership_.suspects_counter()},
      {"member.readmits", &membership_.readmits_counter()},
  });
}

void Cluster::run(const std::function<void(int)>& fn) {
  if (options_.host_sched == ClusterOptions::HostSched::kUlt) {
    run_ult(fn);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_hosts_));
  std::exception_ptr first_error;
  rt::Spinlock error_lock;
  for (int h = 0; h < num_hosts_; ++h) {
    threads.emplace_back([&, h] {
      tl_cluster_host = h;
      try {
        fn(h);
      } catch (...) {
        std::lock_guard<rt::Spinlock> guard(error_lock);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

void Cluster::run_ult(const std::function<void(int)>& fn) {
  ult::SchedulerConfig cfg;
  cfg.workers = options_.ult_workers;
  cfg.workers_hint = static_cast<std::size_t>(num_hosts_);
  ult::Scheduler sched(cfg);
  std::exception_ptr first_error;
  rt::Spinlock error_lock;
  for (int h = 0; h < num_hosts_; ++h) {
    sched.spawn(
        [&, h] {
          try {
            fn(h);
          } catch (...) {
            std::lock_guard<rt::Spinlock> guard(error_lock);
            if (!first_error) first_error = std::current_exception();
          }
        },
        /*host=*/h);
  }
  sched.run();
  // Registry-owned counters survive the run (unlike engine probes), so the
  // post-run snapshot in the bench runner sees them; CI's host-scale smoke
  // gates on their presence.
  const ult::SchedStats stats = sched.stats();
  telemetry::Registry& reg = fabric_.telemetry();
  reg.counter("sched.spawns").add(stats.spawns);
  reg.counter("sched.switches").add(stats.switches);
  reg.counter("sched.yields").add(stats.yields);
  reg.counter("sched.yields_fast").add(stats.yields_fast);
  reg.counter("sched.steals").add(stats.steals);
  reg.counter("sched.parks").add(stats.parks);
  reg.counter("sched.notifies").add(stats.notifies);
  reg.counter("sched.workers").add(sched.workers());
  if (first_error) std::rethrow_exception(first_error);
}

int Cluster::self_host() const noexcept {
  const int fiber_host = ult::current_host();
  return fiber_host >= 0 ? fiber_host : tl_cluster_host;
}

void Cluster::throw_failure() const {
  // Surface which peer died when membership knows; -1 = detector-only.
  for (int h = 0; h < num_hosts_; ++h)
    if (membership_.state(static_cast<std::size_t>(h)) ==
        comm::PeerState::Dead)
      throw comm::PeerFailedError(h);
  throw comm::PeerFailedError(-1);
}

void Cluster::oob_wait() {
  if (membership_.failure_pending()) throw_failure();
  if (options_.oob_coll == ClusterOptions::OobColl::kTree) {
    const int self = self_host();
    assert(self >= 0 && "OOB collectives are host-main only (inside run())");
    if (!tree_barrier_.arrive_and_wait_abortable(
            static_cast<std::size_t>(self),
            [this] { return abort_pending(); }))
      throw_failure();
    return;
  }
  if (!barrier_.arrive_and_wait_abortable(
          [this] { return membership_.failure_pending(); }))
    throw_failure();
}

void Cluster::round_tick(int host, std::int64_t round,
                         const std::function<void()>& stage) {
  // Straggler injection: the slow host is held at the top of each round,
  // entering every sync phase last (what the health monitor's straggler
  // classifier is built to flag). It waits through Backoff, not a bare
  // spin: as a fiber, a spin would hold its ULT worker and make every host
  // queued on that worker late too, and as an OS thread it would take a
  // core from the other hosts on a loaded box.
  const fabric::FaultProfile& fp = fabric_.config().fault;
  if (fp.slow_round_ns > 0 && host == fp.slow_host) {
    const std::uint64_t until = rt::now_ns() + fp.slow_round_ns;
    rt::Backoff backoff;
    while (rt::now_ns() < until) backoff.pause();
  }
  fabric_.note_round(static_cast<fabric::Rank>(host), round);
  if (!fabric_.is_alive(static_cast<fabric::Rank>(host)))
    throw comm::HostKilledError(host);
  stage();
  if (membership_.failure_pending()) throw_failure();
}

std::int64_t Cluster::recover(int self) {
  membership_.recovery_barrier(static_cast<std::size_t>(self), [this] {
    const std::int64_t rollback = checkpoints_.stable_round();
    rollback_round_.store(rollback, std::memory_order_release);
    membership_.log_event({comm::RecoveryEvent::Kind::Rollback, -1, rollback,
                           fabric_.epoch()});
    {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "{\"round\":%lld,\"epoch\":%u}",
                    static_cast<long long>(rollback), fabric_.epoch());
      telemetry::flight_record(0, "recovery.rollback", buf);
      telemetry::flight_dump("rollback");
    }
    for (int h = 0; h < num_hosts_; ++h) {
      const auto r = static_cast<fabric::Rank>(h);
      if (!fabric_.is_alive(r)) {
        fabric_.revive(r);
        membership_.mark_alive(static_cast<std::size_t>(h));
        membership_.log_event({comm::RecoveryEvent::Kind::Readmit, h, -1,
                               fabric_.epoch()});
      } else if (membership_.state(static_cast<std::size_t>(h)) !=
                 comm::PeerState::Alive) {
        // Stale watchdog suspicion of a survivor: cleared by recovery.
        membership_.mark_alive(static_cast<std::size_t>(h));
      }
    }
    // The OOB plane may be torn mid-collective: restore the barriers (flat
    // and tree), the combining trees and the allreduce scratch to their
    // initial states. Every participant is quiescent inside this
    // rendezvous, the one place tree resets are legal.
    barrier_.reset();
    tree_barrier_.reset();
    tree_u64_.reset();
    tree_double_.reset();
    acc_u64_.store(0, std::memory_order_relaxed);
    {
      std::lock_guard<rt::Spinlock> guard(acc_lock_);
      acc_double_ = 0.0;
      acc_u64_min_ = ~std::uint64_t{0};
    }
    membership_.clear_failure();
  });
  return rollback_round_.load(std::memory_order_acquire);
}

// Tree allreduces: one up-wave + one down-wave instead of the flat path's
// three full barrier rounds around shared scratch. Each combine runs in the
// tree's deterministic child order, so double-sum results are bitwise
// reproducible across runs of the same host count (the flat spinlocked
// accumulation orders by arrival).

std::uint64_t Cluster::oob_allreduce_sum(std::uint64_t value) {
  if (options_.oob_coll == ClusterOptions::OobColl::kTree) {
    if (membership_.failure_pending()) throw_failure();
    const int self = self_host();
    assert(self >= 0 && "OOB collectives are host-main only (inside run())");
    std::uint64_t out = 0;
    if (!tree_u64_.run(
            static_cast<std::size_t>(self), value,
            [](std::uint64_t a, std::uint64_t b) { return a + b; },
            [this] { return abort_pending(); }, &out))
      throw_failure();
    return out;
  }
  acc_u64_.fetch_add(value, std::memory_order_acq_rel);
  oob_wait();
  const std::uint64_t result = acc_u64_.load(std::memory_order_acquire);
  oob_wait();
  acc_u64_.store(0, std::memory_order_relaxed);  // idempotent across hosts
  oob_wait();
  return result;
}

double Cluster::oob_allreduce_sum(double value) {
  if (options_.oob_coll == ClusterOptions::OobColl::kTree) {
    if (membership_.failure_pending()) throw_failure();
    const int self = self_host();
    assert(self >= 0 && "OOB collectives are host-main only (inside run())");
    double out = 0.0;
    if (!tree_double_.run(
            static_cast<std::size_t>(self), value,
            [](double a, double b) { return a + b; },
            [this] { return abort_pending(); }, &out))
      throw_failure();
    return out;
  }
  {
    std::lock_guard<rt::Spinlock> guard(acc_lock_);
    acc_double_ += value;
  }
  oob_wait();
  double result;
  {
    std::lock_guard<rt::Spinlock> guard(acc_lock_);
    result = acc_double_;
  }
  oob_wait();
  {
    std::lock_guard<rt::Spinlock> guard(acc_lock_);
    acc_double_ = 0.0;
  }
  oob_wait();
  return result;
}

double Cluster::oob_allreduce_max(double value) {
  if (options_.oob_coll == ClusterOptions::OobColl::kTree) {
    if (membership_.failure_pending()) throw_failure();
    const int self = self_host();
    assert(self >= 0 && "OOB collectives are host-main only (inside run())");
    double out = 0.0;
    if (!tree_double_.run(
            static_cast<std::size_t>(self), value,
            [](double a, double b) { return std::max(a, b); },
            [this] { return abort_pending(); }, &out))
      throw_failure();
    return out;
  }
  {
    std::lock_guard<rt::Spinlock> guard(acc_lock_);
    acc_double_ = std::max(acc_double_, value);
  }
  oob_wait();
  double result;
  {
    std::lock_guard<rt::Spinlock> guard(acc_lock_);
    result = acc_double_;
  }
  oob_wait();
  {
    std::lock_guard<rt::Spinlock> guard(acc_lock_);
    acc_double_ = 0.0;
  }
  oob_wait();
  return result;
}

std::uint64_t Cluster::oob_allreduce_min(std::uint64_t value) {
  if (options_.oob_coll == ClusterOptions::OobColl::kTree) {
    if (membership_.failure_pending()) throw_failure();
    const int self = self_host();
    assert(self >= 0 && "OOB collectives are host-main only (inside run())");
    std::uint64_t out = 0;
    if (!tree_u64_.run(
            static_cast<std::size_t>(self), value,
            [](std::uint64_t a, std::uint64_t b) { return std::min(a, b); },
            [this] { return abort_pending(); }, &out))
      throw_failure();
    return out;
  }
  // min(x) == ~max(~x); reuse the u64 sum slot as a max via CAS.
  {
    std::lock_guard<rt::Spinlock> guard(acc_lock_);
    acc_u64_min_ = std::min(acc_u64_min_, value);
  }
  oob_wait();
  std::uint64_t result;
  {
    std::lock_guard<rt::Spinlock> guard(acc_lock_);
    result = acc_u64_min_;
  }
  oob_wait();
  {
    std::lock_guard<rt::Spinlock> guard(acc_lock_);
    acc_u64_min_ = ~std::uint64_t{0};
  }
  oob_wait();
  return result;
}

}  // namespace lcr::abelian
