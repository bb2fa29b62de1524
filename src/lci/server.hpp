// The LCI communication server: a dedicated thread running Algorithm 3.
//
// "The progress is implicit and typically ensured by a communication server.
// When the communication is finished, a boolean flag is set." The server is
// the thread that drains the NIC; compute threads interact with it through
// nothing but the request status flags and the concurrent queue Q. It
// publishes its work-vs-idle profile under "lci.server".
#pragma once

#include <atomic>
#include <thread>

#include "lci/queue.hpp"

namespace lcr::lci {

class ProgressServer {
 public:
  explicit ProgressServer(Queue& queue) : queue_(queue) {}
  ~ProgressServer() { stop(); }

  ProgressServer(const ProgressServer&) = delete;
  ProgressServer& operator=(const ProgressServer&) = delete;

  /// Starts the server thread. Idempotent.
  void start();

  /// Stops and joins the server thread. Idempotent.
  void stop();

  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

 private:
  void loop();

  Queue& queue_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
};

}  // namespace lcr::lci
