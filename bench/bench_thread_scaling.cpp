// Thread-count scaling: the paper's core motivation.
//
// "MPI ... performance still tapers off with large thread counts. This
// problem worsens when each host communicates simultaneously with many
// other hosts ... and when each host is running many threads." (Section I)
// LCI is "the first communication interface targeting graph analytics that
// can handle high thread counts" (Section VI).
//
// This bench pumps small messages from T concurrent sender threads on one
// host to a draining peer and reports the aggregate message rate of:
//   * LCI - every send_enq posts to the fabric at the call site (Algorithm
//     1, DESIGN.md §10), so T threads contend only on the per-link and
//     endpoint locks they touch.
//   * MPI multiple - send from every thread under MPI_THREAD_MULTIPLE
//     (global lock + per-caller contention surcharge), rate decays.
#include <atomic>
#include <cstdio>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_support/table.hpp"
#include "fabric/fabric.hpp"
#include "lci/queue.hpp"
#include "mpilite/comm.hpp"
#include "runtime/timer.hpp"

using namespace lcr;

namespace {

constexpr int kMessagesPerThread = 4000;

fabric::FabricConfig quiet_fabric() {
  fabric::FabricConfig cfg = fabric::omnipath_knl_config();
  cfg.wire_latency = std::chrono::nanoseconds(0);
  cfg.bandwidth_Bps = 0.0;
  cfg.default_rx_buffers = 1024;
  return cfg;
}

/// T threads send_enq concurrently towards a draining peer; the main thread
/// runs both hosts' progress and drains host 1.
double lci_rate(int threads) {
  fabric::Fabric fab(2, quiet_fabric());
  lci::QueueConfig qcfg;
  qcfg.device.rx_packets = 1024;
  qcfg.device.tx_packets = 256;
  lci::Queue q0(fab, 0, qcfg);
  lci::Queue q1(fab, 1, qcfg);

  const int total = kMessagesPerThread * threads;
  int received = 0;
  rt::Timer timer;
  std::vector<std::thread> senders;
  for (int t = 0; t < threads; ++t) {
    senders.emplace_back([&, t] {
      const std::uint64_t payload = static_cast<std::uint64_t>(t);
      lci::Request req;  // eager: done when send_enq returns true
      for (int i = 0; i < kMessagesPerThread; ++i)
        while (!q0.send_enq(&payload, sizeof(payload), 1,
                            static_cast<std::uint32_t>(t), req))
          rt::thread_yield();
    });
  }
  lci::Request in;
  while (received < total) {
    bool did_work = q0.progress();
    did_work |= q1.progress();
    while (q1.recv_deq(in)) {
      q1.release(in);
      ++received;
      did_work = true;
    }
    // Oversubscribed hosts: an empty poll must hand the core to the
    // senders instead of burning their quantum.
    if (!did_work) rt::thread_yield();
  }
  const double rate = total / timer.elapsed_s();
  for (auto& s : senders) s.join();
  return rate;
}

double mpi_rate(int threads) {
  fabric::Fabric fab(2, quiet_fabric());
  mpi::CommConfig ccfg;
  ccfg.rx_buffers = 1024;
  ccfg.declared_concurrency = static_cast<std::size_t>(threads);
  mpi::Comm c0(fab, 0, mpi::default_personality(),
               mpi::ThreadLevel::Multiple, ccfg);
  mpi::Comm c1(fab, 1, mpi::default_personality(),
               mpi::ThreadLevel::Multiple, ccfg);

  const int total = kMessagesPerThread * threads;
  std::atomic<int> received{0};
  rt::Timer timer;
  std::vector<std::thread> senders;
  for (int t = 0; t < threads; ++t) {
    senders.emplace_back([&, t] {
      const std::uint64_t payload = static_cast<std::uint64_t>(t);
      for (int i = 0; i < kMessagesPerThread; ++i)
        c0.send(&payload, sizeof(payload), 1, t);
    });
  }
  std::uint64_t sink = 0;
  while (received.load(std::memory_order_relaxed) < total) {
    c0.progress();
    mpi::Status st;
    while (c1.iprobe(mpi::kAnySource, mpi::kAnyTag, &st)) {
      c1.recv(&sink, sizeof(sink), st.source, st.tag);
      received.fetch_add(1, std::memory_order_relaxed);
    }
  }
  const double rate = total / timer.elapsed_s();
  for (auto& s : senders) s.join();
  return rate;
}

}  // namespace

int main() {
  std::printf("=== Thread scaling: aggregate message rate vs sender thread "
              "count ===\n");
  std::printf("(2 hosts; T threads send 8B messages concurrently; LCI "
              "send_enq vs MPI_THREAD_MULTIPLE)\n\n");

  bench::Table table(
      {"threads", "lci (msgs/s)", "mpi (msgs/s)", "lci/mpi"});
  double lci1 = 0, mpi1 = 0, lciN = 0, mpiN = 0;
  for (int threads : {1, 2, 4, 8}) {
    const double lci = lci_rate(threads);
    const double mpi = mpi_rate(threads);
    if (threads == 1) {
      lci1 = lci;
      mpi1 = mpi;
    }
    lciN = lci;
    mpiN = mpi;
    table.add_row({std::to_string(threads),
                   std::to_string(static_cast<long long>(lci)),
                   std::to_string(static_cast<long long>(mpi)),
                   bench::fmt_ratio(lci / mpi)});
  }
  table.print(std::cout);
  std::printf("\nretention at max threads (rate_T / rate_1): lci %.2f, "
              "mpi %.2f\nshape to check: the lci/mpi ratio grows with the "
              "thread count (MPI 'performance tapers off with large thread "
              "counts'; see EXPERIMENTS.md, thread scaling).\n",
              lciN / lci1, mpiN / mpi1);
  return 0;
}
