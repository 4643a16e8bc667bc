// The benchmark's yardstick: a minimal blocking server that speaks the
// workload protocol with none of the runtime's machinery (no epoll, no
// rings, no pools, no balancer). Each run alternates short phases of
// traffic to the runtime and to this server on the same CPUs, so both see
// the same host disturbance (hypervisor steal, co-tenant cache and SMT
// pressure), and the runtime's wall-clock figures are reported relative to
// it. It shares no code with src/. It does share its CPUs with the idle
// reactors, which keep waking in epoll_wait during the reference phases, so
// a change to the reactors' idle behaviour can still move it; the traced
// run reports what they use there as rt.reactor_cpu_in_ref_phases_pct.

#ifndef RTBENCH_REFERENCE_H_
#define RTBENCH_REFERENCE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "rtbench/client.h"

namespace rtbench {

class RefServer {
 public:
  // One server thread per entry of `cpus`, pinned there, each with its own
  // listening socket: generator thread i talks only to server thread i, so
  // no connection waits behind another's conversation.
  RefServer(Workload w, const std::vector<int>& cpus);
  // Stops accepting and joins the threads; the clients must have closed
  // their connections first.
  ~RefServer();

  RefServer(const RefServer&) = delete;
  RefServer& operator=(const RefServer&) = delete;

  // False when a listening socket could not be set up.
  bool ok() const { return ok_; }
  uint16_t port(size_t i) const { return ports_[i]; }
  std::vector<pid_t> tids() const;

 private:
  void ServeLoop(size_t i, int cpu);
  void ServeConn(int fd);

  Workload workload_;
  bool ok_ = true;
  std::vector<int> listen_fds_;
  std::vector<uint16_t> ports_;
  std::string head_;                  // web_static reply header
  std::vector<std::string> objects_;  // web_static payloads, by key
  std::vector<std::atomic<pid_t>> tids_;
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;  // last: they use everything above
};

}  // namespace rtbench

#endif  // RTBENCH_REFERENCE_H_
