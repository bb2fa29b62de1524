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

void warmup_engine(abelian::HostEngine& eng, const std::string& app,
                   graph::PartitionPolicy policy) {
  abelian::SyncPlan plan = app == "pagerank"
                               ? abelian::plan_accumulate(policy)
                               : abelian::plan_push_monotone(policy);
  if (app == "kcore") plan = abelian::SyncPlan{true, true};
  if (app == "pagerank")
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
  const bool is_pagerank = spec.app == "pagerank";
  if (is_pagerank)
    result.labels_f64.assign(g.num_nodes(), 0.0);
  else
    result.labels_u32.assign(g.num_nodes(), 0);

  std::vector<HostOutcome> outcomes(static_cast<std::size_t>(spec.hosts));
  std::vector<rt::MemTracker> trackers(static_cast<std::size_t>(spec.hosts));

  cluster.run([&](int h) {
    const auto hs = static_cast<std::size_t>(h);
    const graph::DistGraph& part = parts[hs];
    HostOutcome& out = outcomes[hs];

    // Recovery context: every driver checkpoints through the cluster store;
    // after a failure the retry loop flips `resume` and re-enters the app at
    // the rollback round (DESIGN.md §13). All hosts abort / recover / resume
    // in lockstep, so the collective call sequence stays aligned.
    rt::RecoveryCtx rec;
    rec.store = &cluster.checkpoints();
    rec.host = hs;
    rec.interval = spec.ckpt_interval;

    bool first_attempt = true;
    std::uint64_t measure_start_ns = 0;
    std::uint64_t fail_ns = 0;

    if (is_gemini) {
      gemini::GeminiConfig cfg;
      cfg.comm = spec.backend == comm::BackendKind::Lci
                     ? gemini::CommKind::Lci
                     : gemini::CommKind::MpiProbeMulti;
      cfg.compute_threads = spec.threads;
      cfg.mpi_personality = spec.mpi_personality;
      cfg.tracker = &trackers[hs];
      cfg.dense_threshold = spec.gemini_dense_threshold;
      cfg.batch_bytes = spec.gemini_batch_bytes;
      cfg.lci_lanes = spec.lci_lanes;
      cfg.lci_servers = spec.lci_servers;
      cfg.direct_write = spec.direct_write;

      std::unique_ptr<gemini::GeminiHost> host;
      for (;;) {
        try {
          host = std::make_unique<gemini::GeminiHost>(cluster, part, cfg);
          cluster.oob_barrier();
          // Setup spans must not pollute the measured trace (mirrors the
          // stats zeroing warmup_engine does for the abelian path).
          if (h == 0 && first_attempt) telemetry::reset_trace();
          cluster.oob_barrier();
          if (measure_start_ns == 0) measure_start_ns = rt::now_ns();
          if (fail_ns != 0) {
            out.recovery_s +=
                static_cast<double>(rt::now_ns() - fail_ns) * 1e-9;
            fail_ns = 0;
          }
          if (spec.app == "bfs") {
            auto labels = host->run_push<apps::BfsTraits>(spec.source, &rec);
            write_masters(part, labels, result.labels_u32);
          } else if (spec.app == "cc") {
            auto labels = host->run_push<apps::CcTraits>(0, &rec);
            write_masters(part, labels, result.labels_u32);
          } else if (spec.app == "labelprop") {
            auto labels =
                host->run_push<apps::LabelPropTraits>(0, &rec);
            write_masters(part, labels, result.labels_u32);
          } else if (spec.app == "sssp") {
            auto labels = host->run_push<apps::SsspTraits>(spec.source, &rec);
            write_masters(part, labels, result.labels_u32);
          } else if (spec.app == "pagerank") {
            auto ranks = host->run_pagerank(0.85, spec.pagerank_iters,
                                            spec.pagerank_tol, &rec);
            write_masters(part, ranks, result.labels_f64);
          } else {
            throw std::invalid_argument("unknown app: " + spec.app);
          }
          break;
        } catch (const comm::HostKilledError&) {
          fail_ns = rt::now_ns();
        } catch (const comm::PeerFailedError&) {
          fail_ns = rt::now_ns();
        }
        first_attempt = false;
        const std::uint64_t rounds_at_fail = host ? host->stats().rounds : 0;
        host.reset();  // tear down before re-admission (endpoint detach)
        rec.resume = true;
        rec.resume_round = cluster.recover(h);
        if (h == 0)
          note_rollback_rounds(cluster.fabric().telemetry(), rounds_at_fail,
                               rec.resume_round);
      }
      out.total_s =
          static_cast<double>(rt::now_ns() - measure_start_ns) * 1e-9;
      cluster.oob_barrier();
      // Snapshot the registry while every host's engine (and therefore
      // every layer's probe registration) is still alive; the trailing
      // barrier keeps peers from tearing down early.
      if (h == 0) result.telemetry = cluster.fabric().telemetry().snapshot();
      cluster.oob_barrier();
      out.compute_s = host->stats().compute_s;
      out.comm_s = host->stats().comm_s;
      out.rounds = host->stats().rounds;
      out.messages = host->stats().messages.load();
      out.bytes = host->stats().bytes.load();
      return;
    }

    abelian::EngineConfig cfg;
    cfg.backend = spec.backend;
    cfg.backend_options.tracker = &trackers[hs];
    cfg.backend_options.mpi_personality = spec.mpi_personality;
    cfg.backend_options.aggregation_timeout_us = spec.aggregation_timeout_us;
    cfg.backend_options.lci_lanes = spec.lci_lanes;
    cfg.backend_options.lci_servers = spec.lci_servers;
    cfg.compute_threads = spec.threads;
    cfg.apply_workers = spec.apply_workers;
    cfg.direct_write = spec.direct_write;
    if (spec.apply_slice_records != 0)
      cfg.apply_slice_records = spec.apply_slice_records;

    std::unique_ptr<abelian::HostEngine> eng;
    for (;;) {
      try {
        eng = std::make_unique<abelian::HostEngine>(cluster, part, cfg);
        warmup_engine(*eng, spec.app, policy);
        cluster.oob_barrier();
        if (h == 0 && first_attempt)
          telemetry::reset_trace();  // drop warm-up spans
        cluster.oob_barrier();
        if (measure_start_ns == 0) measure_start_ns = rt::now_ns();
        if (fail_ns != 0) {
          out.recovery_s +=
              static_cast<double>(rt::now_ns() - fail_ns) * 1e-9;
          fail_ns = 0;
        }
        if (spec.app == "bfs") {
          auto labels = apps::run_bfs(*eng, spec.source, &rec);
          write_masters(part, labels, result.labels_u32);
        } else if (spec.app == "cc") {
          auto labels = apps::run_cc(*eng, &rec);
          write_masters(part, labels, result.labels_u32);
        } else if (spec.app == "labelprop") {
          auto labels = apps::run_labelprop(*eng, &rec);
          write_masters(part, labels, result.labels_u32);
        } else if (spec.app == "sssp") {
          auto labels = apps::run_sssp(*eng, spec.source, &rec);
          write_masters(part, labels, result.labels_u32);
        } else if (spec.app == "pagerank") {
          apps::PagerankOptions opt;
          opt.max_iterations = spec.pagerank_iters;
          opt.tolerance = spec.pagerank_tol;
          auto ranks = apps::run_pagerank(*eng, opt, &rec);
          write_masters(part, ranks, result.labels_f64);
        } else if (spec.app == "kcore") {
          auto alive = apps::run_kcore(*eng, spec.kcore_k);
          write_masters(part, alive, result.labels_u32);
        } else if (spec.app == "sssp_delta") {
          auto labels = apps::run_sssp_delta(*eng, spec.source);
          write_masters(part, labels, result.labels_u32);
        } else {
          throw std::invalid_argument("unknown app: " + spec.app);
        }
        break;
      } catch (const comm::HostKilledError&) {
        fail_ns = rt::now_ns();
      } catch (const comm::PeerFailedError&) {
        fail_ns = rt::now_ns();
      }
      first_attempt = false;
      const std::uint64_t rounds_at_fail = eng ? eng->stats().rounds : 0;
      eng.reset();  // tear down before re-admission (endpoint detach)
      rec.resume = true;
      rec.resume_round = cluster.recover(h);
      if (h == 0)
        note_rollback_rounds(cluster.fabric().telemetry(), rounds_at_fail,
                             rec.resume_round);
    }
    out.total_s =
        static_cast<double>(rt::now_ns() - measure_start_ns) * 1e-9;
    cluster.oob_barrier();
    if (h == 0) result.telemetry = cluster.fabric().telemetry().snapshot();
    cluster.oob_barrier();
    out.compute_s = eng->stats().compute_s;
    out.comm_s = eng->stats().comm_s;
    out.rounds = eng->stats().rounds;
    out.messages = eng->stats().messages_sent.load();
    out.bytes = eng->stats().bytes_sent.load();
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

  // The registry aggregates same-name probes across all endpoints/hosts, so
  // one snapshot replaces the per-endpoint, per-field copy loop this used
  // to hand-maintain. The named fields stay as views of the map.
  const auto tv = [&result](const char* name) -> std::uint64_t {
    const auto it = result.telemetry.find(name);
    return it == result.telemetry.end() ? 0 : it->second;
  };
  result.wire_sends = tv("fabric.sends");
  result.wire_puts = tv("fabric.puts");
  result.wire_bytes = tv("fabric.bytes_tx");
  result.wire_soft_retries = tv("fabric.retries_no_rx") +
                             tv("fabric.retries_throttled") +
                             tv("fabric.retries_cq_full");
  result.faults_dropped = tv("fault.dropped");
  result.faults_duplicated = tv("fault.duplicated");
  result.faults_corrupted = tv("fault.corrupted");
  result.faults_delayed = tv("fault.delayed");
  result.faults_reordered = tv("fault.reordered");
  result.rel_data_tx = tv("rel.data_tx");
  result.rel_retransmits = tv("rel.retransmits");
  result.rel_probes = tv("rel.probes_tx");
  result.rel_acks_tx = tv("rel.acks_tx");
  result.rel_acks_rx = tv("rel.acks_rx");
  result.rel_delivered = tv("rel.delivered");
  result.rel_dup_dropped = tv("rel.dup_dropped");
  result.rel_crc_dropped = tv("rel.crc_dropped");
  result.rel_ooo_held = tv("rel.ooo_held");
  result.rel_ooo_dropped = tv("rel.ooo_dropped");
  result.rel_stall_dumps = tv("rel.stall_dumps");
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
