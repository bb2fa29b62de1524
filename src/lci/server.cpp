#include "lci/server.hpp"

#include "runtime/cpu_relax.hpp"
#include "runtime/timer.hpp"
#include "telemetry/profiler.hpp"

namespace lcr::lci {

void ProgressServer::start() {
  if (running_.exchange(true, std::memory_order_acq_rel)) return;
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { loop(); });
}

void ProgressServer::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_release);
}

void ProgressServer::loop() {
  rt::Backoff backoff;
  fabric::ReliableChannel& channel = queue_.device().reliable();
  telemetry::ProgressProfiler profiler(queue_.device().fabric().telemetry(),
                                       "lci.server");
  const std::uint64_t quiet_ns = channel.config().watchdog_quiet_ns;
  std::uint64_t last_forward_ns = rt::now_ns();
  std::uint64_t last_dump_ns = last_forward_ns;
  while (!stop_.load(std::memory_order_acquire)) {
    const bool did_work = queue_.progress();
    profiler.note(did_work);
    if (did_work) {
      backoff.reset();
      last_forward_ns = rt::now_ns();
    } else {
      // Adaptive poll backoff: spin with cpu_relax first, yield once the
      // queue stays quiet (essential when the server oversubscribes cores).
      backoff.pause();
      // Server-side stall watchdog: the channel's own watchdog covers
      // unacked traffic it originated; this one also catches a loop that
      // spins forever with nothing locally in flight (e.g. waiting on a
      // peer whose retransmit ring is wedged). Dump at most once per quiet
      // period, and only on a channel actually running the reliability
      // protocol.
      if (channel.active() && quiet_ns > 0) {
        const std::uint64_t now = rt::now_ns();
        if (now - last_forward_ns >= quiet_ns &&
            now - last_dump_ns >= quiet_ns && channel.has_inflight()) {
          last_dump_ns = now;
          channel.dump_state("progress-server stall");
        }
      }
    }
  }
  // Final drain so no completion is stranded at shutdown.
  queue_.progress_all();
}

}  // namespace lcr::lci
