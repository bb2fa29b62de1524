// Ablation benches for the design choices DESIGN.md calls out:
//   A. locality-aware packet pool vs plain global pool (paper ref [16]),
//   B. first-packet completion policy vs enforced FIFO-by-tag completion,
//   C. MPI-Probe buffered-layer aggregation timeout sweep (Section III-B),
//   D. LCI receive-window (packet pool) size = the injection bound.
#include <cstdio>
#include <iostream>
#include <map>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench_support/runner.hpp"
#include "bench_support/table.hpp"
#include "fabric/fabric.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "lci/queue.hpp"
#include "runtime/timer.hpp"

using namespace lcr;

namespace {

/// Messages/second through a 2-host LCI pair with a given pool cache count.
double lci_rate(std::size_t pool_caches, std::size_t rx_packets,
                int count) {
  fabric::FabricConfig cfg = fabric::omnipath_knl_config();
  cfg.wire_latency = std::chrono::nanoseconds(0);
  cfg.bandwidth_Bps = 0;
  fabric::Fabric fab(2, cfg);
  lci::QueueConfig qcfg;
  qcfg.device.pool_caches = pool_caches;
  qcfg.device.rx_packets = rx_packets;
  lci::Queue q0(fab, 0, qcfg);
  lci::Queue q1(fab, 1, qcfg);

  const std::uint64_t payload = 1;
  int sent = 0, received = 0;
  std::vector<std::unique_ptr<lci::Request>> reqs;
  rt::Timer timer;
  while (received < count) {
    for (int b = 0; b < 16 && sent < count; ++b) {
      auto req = std::make_unique<lci::Request>();
      if (!q0.send_enq(&payload, sizeof(payload), 1,
                       static_cast<std::uint32_t>(sent), *req))
        break;
      ++sent;
      reqs.push_back(std::move(req));
    }
    q1.progress();
    lci::Request in;
    while (q1.recv_deq(in)) {
      q1.release(in);
      ++received;
    }
    q0.progress();
  }
  return count / timer.elapsed_s();
}

/// First-packet policy vs forced in-tag-order completion: the receiver
/// insists on consuming tags 0,1,2,... and stashes out-of-order arrivals
/// (what an ordering-dependent consumer must do on top of LCI - and what
/// MPI does internally for every message).
double lci_ordered_rate(bool enforce_order, int count) {
  fabric::FabricConfig cfg = fabric::omnipath_knl_config();
  cfg.wire_latency = std::chrono::nanoseconds(0);
  cfg.bandwidth_Bps = 0;
  fabric::Fabric fab(2, cfg);
  lci::Queue q0(fab, 0, {});
  lci::Queue q1(fab, 1, {});

  const std::uint64_t payload = 1;
  int sent = 0, received = 0;
  std::uint32_t next_tag = 0;
  std::vector<std::unique_ptr<lci::Request>> reqs;
  std::map<std::uint32_t, lci::Request*> stash;
  rt::Timer timer;
  while (received < count) {
    for (int b = 0; b < 16 && sent < count; ++b) {
      auto req = std::make_unique<lci::Request>();
      if (!q0.send_enq(&payload, sizeof(payload), 1,
                       static_cast<std::uint32_t>(sent), *req))
        break;
      ++sent;
      reqs.push_back(std::move(req));
    }
    q1.progress();
    if (enforce_order) {
      // Consume in tag order, stashing everything else.
      for (;;) {
        auto it = stash.find(next_tag);
        if (it != stash.end()) {
          q1.release(*it->second);
          delete it->second;
          stash.erase(it);
          ++received;
          ++next_tag;
          continue;
        }
        auto* in = new lci::Request();
        if (!q1.recv_deq(*in)) {
          delete in;
          break;
        }
        stash.emplace(in->tag, in);
      }
    } else {
      lci::Request in;
      while (q1.recv_deq(in)) {
        q1.release(in);
        ++received;
      }
    }
    q0.progress();
  }
  return count / timer.elapsed_s();
}

}  // namespace

int main() {
  constexpr int kMessages = 20000;
  std::printf("=== Ablations ===\n\n");

  // --- A: packet-pool locality ---
  {
    bench::Table t({"pool caches", "msgs/s"});
    for (std::size_t caches : {0u, 4u, 8u}) {
      const double rate = lci_rate(caches, 256, kMessages);
      t.add_row({caches == 0 ? "none (global only)" : std::to_string(caches),
                 std::to_string(static_cast<long long>(rate))});
    }
    std::printf("A. locality-aware packet pool (paper ref [16])\n");
    t.print(std::cout);
    std::printf("\n");
  }

  // --- B: first-packet vs enforced ordering ---
  {
    const double fp = lci_ordered_rate(false, kMessages);
    const double ord = lci_ordered_rate(true, kMessages);
    bench::Table t({"completion policy", "msgs/s", "vs first-packet"});
    t.add_row({"first-packet (LCI)",
               std::to_string(static_cast<long long>(fp)), "1.00x"});
    t.add_row({"forced tag order",
               std::to_string(static_cast<long long>(ord)),
               bench::fmt_ratio(ord / fp)});
    std::printf("B. first-packet policy vs ordered completion\n");
    t.print(std::cout);
    std::printf("\n");
  }

  // --- C: buffered-layer aggregation timeout (MPI-Probe) ---
  {
    graph::Csr g = graph::kron(bench::env_scale(9), 16.0);
    bench::Table t({"agg timeout (us)", "pagerank total(s)"});
    for (std::uint64_t timeout : {0ull, 50ull, 500ull, 5000ull}) {
      bench::RunSpec spec;
      spec.app = "pagerank";
      spec.backend = comm::BackendKind::MpiProbe;
      spec.hosts = 4;
      spec.pagerank_iters = 6;
      spec.fabric = fabric::omnipath_knl_config();
      // plumb the timeout through the backend options
      spec.mpi_personality = "default";
      // RunSpec has no field for the timeout; encode via environment-free
      // direct run: reuse aggregation default by custom spec field below.
      spec.aggregation_timeout_us = timeout;
      t.add_row({std::to_string(timeout),
                 bench::fmt_seconds(bench::run_app(g, spec).total_s)});
    }
    std::printf("C. MPI-Probe buffered-layer timeout sweep (Section "
                "III-B)\n");
    t.print(std::cout);
    std::printf("\n");
  }

  // --- D: LCI receive-window size (the injection bound) ---
  {
    bench::Table t({"rx packets", "msgs/s"});
    for (std::size_t rx : {16u, 64u, 256u, 1024u}) {
      const double rate = lci_rate(8, rx, kMessages);
      t.add_row({std::to_string(rx),
                 std::to_string(static_cast<long long>(rate))});
    }
    std::printf("D. LCI packet-pool / receive-window size (flow control)\n");
    t.print(std::cout);
    std::printf("\n");
  }

  // --- E: Gemini sparse vs dense vs adaptive signal modes (this repo's
  //        extension beyond the paper; cc has dense frontiers early) ---
  {
    graph::Csr g =
        graph::symmetrize(graph::kron(bench::env_scale(10), 16.0));
    bench::Table t({"mode", "total(s)", "bytes sent", "messages"});
    struct Mode {
      const char* label;
      double threshold;
    };
    for (const Mode& m : {Mode{"sparse (per-edge signals)", 2.0},
                          Mode{"dense (per-dst combined)", 0.0},
                          Mode{"adaptive (5% of edges)", 0.05}}) {
      bench::RunSpec spec;
      spec.app = "cc";
      spec.engine = "gemini";
      spec.backend = comm::BackendKind::Lci;
      spec.hosts = 4;
      spec.gemini_dense_threshold = m.threshold;
      spec.fabric = fabric::omnipath_knl_config();
      const bench::RunResult r = bench::run_app(g, spec);
      t.add_row({m.label, bench::fmt_seconds(r.total_s),
                 bench::fmt_bytes(r.bytes), std::to_string(r.messages)});
    }
    std::printf("E. Gemini signal modes: dense pre-combining cuts traffic "
                "on dense frontiers\n");
    t.print(std::cout);
  }
  return 0;
}
