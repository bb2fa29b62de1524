#include "bench_support/runner.hpp"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <stdexcept>

#include "abelian/cluster.hpp"
#include "abelian/engine.hpp"
#include "abelian/sync.hpp"
#include "apps/bfs.hpp"
#include "apps/cc.hpp"
#include "apps/kcore.hpp"
#include "apps/labelprop.hpp"
#include "apps/pagerank.hpp"
#include "apps/sssp.hpp"
#include "apps/sssp_delta.hpp"
#include "gemini/engine.hpp"
#include "graph/partition.hpp"
#include "mpilite/personality.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/mem_tracker.hpp"
#include "runtime/timer.hpp"
#include "telemetry/telemetry.hpp"

namespace lcr::bench {

graph::VertexId choose_source(const graph::Csr& g) {
  graph::VertexId best = 0;
  std::size_t best_deg = 0;
  for (graph::VertexId v = 0; v < g.num_nodes(); ++v) {
    if (g.degree(v) > best_deg) {
      best_deg = g.degree(v);
      best = v;
    }
  }
  return best;
}

namespace {

struct HostOutcome {
  double total_s = 0.0;
  double compute_s = 0.0;
  double comm_s = 0.0;
  double recovery_s = 0.0;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

template <typename Label>
void write_masters(const graph::DistGraph& g, const std::vector<Label>& local,
                   std::vector<Label>& global) {
  for (graph::VertexId lid = 0; lid < g.num_masters; ++lid)
    global[g.local_to_global(lid)] = local[lid];
}

/// An entry point's arguments besides its engine; put() stores the host's
/// master labels (or PageRank ranks) into the global result.
struct AppCall {
  const RunSpec& spec;
  rt::RecoveryCtx* rec;
  RunResult& result;

  void put(const graph::DistGraph& g,
           const std::vector<std::uint32_t>& local) const {
    write_masters(g, local, result.labels_u32);
  }
  void put(const graph::DistGraph& g, const std::vector<double>& local) const {
    write_masters(g, local, result.labels_f64);
  }
  apps::PagerankOptions pagerank() const {
    return {.max_iterations = spec.pagerank_iters,
            .tolerance = spec.pagerank_tol};
  }
};

template <typename Traits>
void gemini_push(gemini::GeminiHost& h, const AppCall& c) {
  c.put(h.graph(), h.run_push<Traits>(c.spec.source, c.rec));
}

/// One runner app: its label type, the sync plan its warm-up exercises,
/// and its entry point on each engine (none: the app is Abelian-only).
struct AppEntry {
  const char* name;
  bool ranks;  // double PageRank ranks instead of u32 labels
  abelian::SyncPlan (*warmup_plan)(graph::PartitionPolicy);
  void (*abelian)(abelian::HostEngine&, const AppCall&);
  void (*gemini)(gemini::GeminiHost&, const AppCall&);
};

const AppEntry kApps[] = {
    {"bfs", false, abelian::plan_push_monotone,
     [](abelian::HostEngine& e, const AppCall& c) {
       c.put(e.graph(), apps::run_bfs(e, c.spec.source, c.rec));
     },
     gemini_push<apps::BfsTraits>},
    {"cc", false, abelian::plan_push_monotone,
     [](abelian::HostEngine& e, const AppCall& c) {
       c.put(e.graph(), apps::run_cc(e, c.rec));
     },
     gemini_push<apps::CcTraits>},
    {"labelprop", false, abelian::plan_push_monotone,
     [](abelian::HostEngine& e, const AppCall& c) {
       c.put(e.graph(), apps::run_labelprop(e, c.rec));
     },
     gemini_push<apps::LabelPropTraits>},
    {"sssp", false, abelian::plan_push_monotone,
     [](abelian::HostEngine& e, const AppCall& c) {
       c.put(e.graph(), apps::run_sssp(e, c.spec.source, c.rec));
     },
     gemini_push<apps::SsspTraits>},
    {"pagerank", true, abelian::plan_accumulate,
     [](abelian::HostEngine& e, const AppCall& c) {
       c.put(e.graph(), apps::run_pagerank(e, c.pagerank(), c.rec));
     },
     [](gemini::GeminiHost& h, const AppCall& c) {
       c.put(h.graph(), h.run_pagerank(c.pagerank(), c.rec));
     }},
    {"kcore", false,
     [](graph::PartitionPolicy) { return abelian::SyncPlan{true, true}; },
     [](abelian::HostEngine& e, const AppCall& c) {
       c.put(e.graph(), apps::run_kcore(e, c.spec.kcore_k, c.rec));
     },
     nullptr},
    {"sssp_delta", false, abelian::plan_push_monotone,
     [](abelian::HostEngine& e, const AppCall& c) {
       c.put(e.graph(),
             apps::run_sssp_delta(e, c.spec.source, 0, nullptr, c.rec));
     },
     nullptr},
};

const AppEntry& find_app(const RunSpec& spec, bool is_gemini) {
  for (const AppEntry& app : kApps) {
    if (spec.app != app.name) continue;
    if (is_gemini && app.gemini == nullptr)
      throw std::invalid_argument("the gemini engine does not run " +
                                  spec.app);
    return app;
  }
  throw std::invalid_argument("unknown app: " + spec.app);
}

/// Untimed warm-up: run one empty sync round with the app's patterns and
/// datatype. This mirrors the paper's measurement protocol ("RMA window
/// creation time is excluded in MPI-RMA results") and warms every backend's
/// send/receive paths equally.
template <typename Label>
void warmup_sync(abelian::HostEngine& eng, const abelian::SyncPlan& plan) {
  rt::ConcurrentBitset clean(eng.graph().num_local);
  std::vector<Label> scratch(eng.graph().num_local, Label{});
  if (plan.do_reduce)
    eng.sync_reduce<Label>(
        scratch.data(), clean, [](Label&, Label) { return false; },
        [](graph::VertexId) {});
  if (plan.do_broadcast)
    eng.sync_broadcast<Label>(scratch.data(), clean, [](graph::VertexId) {});
}

void warmup_engine(abelian::HostEngine& eng, const AppEntry& app,
                   graph::PartitionPolicy policy) {
  const abelian::SyncPlan plan = app.warmup_plan(policy);
  if (app.ranks)
    warmup_sync<double>(eng, plan);
  else
    warmup_sync<std::uint32_t>(eng, plan);
  // Warm-up communication must not count towards the reported numbers.
  eng.stats().comm_s = 0.0;
  eng.stats().compute_s = 0.0;
  eng.stats().phases = 0;
  eng.stats().messages_sent.store(0);
  eng.stats().bytes_sent.store(0);
}

abelian::EngineConfig abelian_config(const RunSpec& spec,
                                     rt::MemTracker& tracker) {
  abelian::EngineConfig cfg;
  cfg.backend = spec.backend;
  cfg.backend_options.tracker = &tracker;
  cfg.backend_options.mpi_personality = spec.mpi_personality;
  cfg.backend_options.aggregation_timeout_us = spec.aggregation_timeout_us;
  cfg.compute_threads = spec.threads;
  cfg.apply_workers = spec.apply_workers;
  cfg.direct_write = spec.direct_write;
  if (spec.apply_slice_records != 0)
    cfg.apply_slice_records = spec.apply_slice_records;
  return cfg;
}

gemini::GeminiConfig gemini_config(const RunSpec& spec,
                                   rt::MemTracker& tracker) {
  gemini::GeminiConfig cfg;
  cfg.comm = spec.backend == comm::BackendKind::Lci
                 ? gemini::CommKind::Lci
                 : gemini::CommKind::MpiProbeMulti;
  cfg.compute_threads = spec.threads;
  cfg.mpi_personality = spec.mpi_personality;
  cfg.tracker = &tracker;
  cfg.dense_threshold = spec.gemini_dense_threshold;
  cfg.batch_bytes = spec.gemini_batch_bytes;
  cfg.direct_write = spec.direct_write;
  return cfg;
}

/// Accounts the rounds of work a recovery threw away: the victim had
/// completed `rounds_at_fail` rounds, the cluster resumed at `resume_round`
/// (-1 = from scratch). Feeds the "ckpt.rollback_rounds" registry counter
/// (host 0 only, so cluster-wide rollbacks are counted once).
void note_rollback_rounds(telemetry::Registry& reg,
                          std::uint64_t rounds_at_fail,
                          std::int64_t resume_round) {
  const std::uint64_t resume =
      resume_round < 0 ? 0 : static_cast<std::uint64_t>(resume_round);
  if (rounds_at_fail > resume)
    reg.counter("ckpt.rollback_rounds").add(rounds_at_fail - resume);
}

}  // namespace

RunResult run_app(const graph::Csr& g, const RunSpec& spec) {
  const bool is_gemini = spec.engine == "gemini";
  // Reject bad specs here, before any host thread starts: a backend that
  // throws while its peers wait at a barrier would hang the cluster.
  mpi::personality_by_name(spec.mpi_personality);
  if (is_gemini && spec.backend == comm::BackendKind::MpiRma)
    throw std::invalid_argument(
        "the gemini engine runs on lci or mpi-probe, not mpi-rma");
  const AppEntry& app = find_app(spec, is_gemini);
  const graph::PartitionPolicy policy =
      is_gemini ? graph::PartitionPolicy::BlockedEdgeCut : spec.policy;

  std::vector<graph::DistGraph> parts =
      graph::partition(g, spec.hosts, policy);

  abelian::ClusterOptions copts = abelian::ClusterOptions::from_env();
  if (spec.host_sched == "ult")
    copts.host_sched = abelian::ClusterOptions::HostSched::kUlt;
  else if (spec.host_sched == "os")
    copts.host_sched = abelian::ClusterOptions::HostSched::kOsThreads;
  if (spec.oob_coll == "tree")
    copts.oob_coll = abelian::ClusterOptions::OobColl::kTree;
  else if (spec.oob_coll == "flat")
    copts.oob_coll = abelian::ClusterOptions::OobColl::kFlat;
  if (spec.ult_workers != 0) copts.ult_workers = spec.ult_workers;
  abelian::Cluster cluster(spec.hosts, spec.fabric, copts);

  RunResult result;
  result.peak_mem.assign(static_cast<std::size_t>(spec.hosts), 0);
  if (app.ranks)
    result.labels_f64.assign(g.num_nodes(), 0.0);
  else
    result.labels_u32.assign(g.num_nodes(), 0);

  std::vector<HostOutcome> outcomes(static_cast<std::size_t>(spec.hosts));
  std::vector<rt::MemTracker> trackers(static_cast<std::size_t>(spec.hosts));

  cluster.run([&](int h) {
    const auto hs = static_cast<std::size_t>(h);
    const graph::DistGraph& part = parts[hs];
    HostOutcome& out = outcomes[hs];

    // Recovery context: every app checkpoints through the cluster store;
    // after a failure the retry loop flips `resume` and re-enters the app at
    // the rollback round (DESIGN.md §13). All hosts abort / recover / resume
    // in lockstep, so the collective call sequence stays aligned.
    rt::RecoveryCtx rec;
    rec.store = &cluster.checkpoints();
    rec.host = hs;
    rec.interval = spec.ckpt_interval;

    // One engine per attempt: the spec's engine, rebuilt after a failure.
    std::unique_ptr<abelian::HostEngine> eng;
    std::unique_ptr<gemini::GeminiHost> gem;
    std::uint64_t measure_start_ns = 0;
    std::uint64_t fail_ns = 0;
    for (bool first_attempt = true;; first_attempt = false) {
      try {
        if (is_gemini) {
          gem = std::make_unique<gemini::GeminiHost>(
              cluster, part, gemini_config(spec, trackers[hs]));
        } else {
          eng = std::make_unique<abelian::HostEngine>(
              cluster, part, abelian_config(spec, trackers[hs]));
          warmup_engine(*eng, app, policy);
        }
        cluster.oob_barrier();
        // Set-up and warm-up spans must not pollute the measured trace.
        if (h == 0 && first_attempt) telemetry::reset_trace();
        cluster.oob_barrier();
        if (measure_start_ns == 0) measure_start_ns = rt::now_ns();
        if (fail_ns != 0) {
          out.recovery_s += static_cast<double>(rt::now_ns() - fail_ns) * 1e-9;
          fail_ns = 0;
        }
        const AppCall call{spec, &rec, result};
        if (is_gemini)
          app.gemini(*gem, call);
        else
          app.abelian(*eng, call);
        break;
      } catch (const comm::HostKilledError&) {
        fail_ns = rt::now_ns();
      } catch (const comm::PeerFailedError&) {
        fail_ns = rt::now_ns();
      }
      const std::uint64_t rounds_at_fail =
          gem ? gem->stats().rounds : eng ? eng->stats().rounds : 0;
      gem.reset();  // tear down before re-admission (endpoint detach)
      eng.reset();
      rec.resume = true;
      rec.resume_round = cluster.recover(h);
      if (h == 0)
        note_rollback_rounds(cluster.fabric().telemetry(), rounds_at_fail,
                             rec.resume_round);
    }
    out.total_s = static_cast<double>(rt::now_ns() - measure_start_ns) * 1e-9;
    cluster.oob_barrier();
    // Snapshot the registry while every host's engine (and therefore every
    // layer's probe registration) is still alive; the trailing barrier keeps
    // peers from tearing down early.
    if (h == 0) result.telemetry = cluster.fabric().telemetry().snapshot();
    cluster.oob_barrier();
    if (is_gemini) {
      out.compute_s = gem->stats().compute_s;
      out.comm_s = gem->stats().comm_s;
      out.rounds = gem->stats().rounds;
      out.messages = gem->stats().messages.load();
      out.bytes = gem->stats().bytes.load();
    } else {
      out.compute_s = eng->stats().compute_s;
      out.comm_s = eng->stats().comm_s;
      out.rounds = eng->stats().rounds;
      out.messages = eng->stats().messages_sent.load();
      out.bytes = eng->stats().bytes_sent.load();
    }
  });

  // Second snapshot pass: engine-owned probes (lci.*, abelian.*, ...) died
  // with the engines, but registry-owned counters and histograms survive
  // and keep growing through teardown (e.g. a ProgressProfiler's final
  // partial-window flush runs in the comm thread's destructor). Merge the
  // late values over the in-run ones; counters are monotonic so max() is
  // simply "latest available".
  for (const auto& [name, value] : cluster.fabric().telemetry().snapshot()) {
    auto& slot = result.telemetry[name];
    slot = std::max(slot, value);
  }
  // Span-ring overflow is silent on the hot path; surface it next to the
  // registry counters so json-out consumers see incomplete traces.
  result.telemetry["trace.dropped"] =
      std::max(result.telemetry["trace.dropped"], telemetry::trace_dropped());

  // Cluster health: classifier findings always ride in the result; the
  // full health.json artifact is written when the spec (or env) asks.
  result.health = cluster.health().diagnose();
  std::string health_out = spec.health_out;
  if (health_out.empty())
    if (const char* env = std::getenv("LCR_HEALTH_OUT")) health_out = env;
  if (!health_out.empty()) cluster.health().write_json(health_out);

  for (int h = 0; h < spec.hosts; ++h) {
    const auto hs = static_cast<std::size_t>(h);
    result.total_s = std::max(result.total_s, outcomes[hs].total_s);
    result.compute_s = std::max(result.compute_s, outcomes[hs].compute_s);
    result.comm_s = std::max(result.comm_s, outcomes[hs].comm_s);
    result.recovery_s = std::max(result.recovery_s, outcomes[hs].recovery_s);
    result.rounds = std::max(result.rounds, outcomes[hs].rounds);
    result.messages += outcomes[hs].messages;
    result.bytes += outcomes[hs].bytes;
    result.peak_mem[hs] = trackers[hs].peak();
  }
  result.kills = cluster.membership().kills();
  result.recoveries = cluster.membership().recoveries();
  result.recovery_events = cluster.membership().events();
  result.killed_at_op = cluster.fabric().killed_at_op();
  for (const auto& ev : result.recovery_events)
    if (ev.kind == comm::RecoveryEvent::Kind::Rollback)
      result.rollback_round = ev.round;
  return result;
}

}  // namespace lcr::bench
