// FaultInjector: a SysIface that executes a FaultPlan.
//
// Wraps a real SysIface (the passthrough by default) and, before each
// forwarded call, consults the plan against this (site, core) pair's call
// counter. Matching rules fire in plan order; the first that fires decides
// the call's fate. Counting and injection are deterministic per core (see
// fault_plan.h); the only cross-core state is the relaxed per-(site, core)
// counters, each owned by one reactor thread in practice.
//
// Stalls sleep in small slices and re-check the runtime's stop flag, so a
// "wedged" reactor still shuts down cleanly when the run ends mid-stall.
// Kills are sticky: once a core's kKill rule fires, every later EpollWait
// on that core returns kKillReactor (a dead reactor stays dead even if the
// call counter would have moved past the rule).

#ifndef AFFINITY_SRC_FAULT_INJECTOR_H_
#define AFFINITY_SRC_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>

#include "src/fault/fault_plan.h"
#include "src/fault/sys_iface.h"

namespace affinity {
namespace fault {

// Per-site injection totals, snapshot-safe while reactors run.
struct InjectorStats {
  uint64_t injected[kNumCallSites] = {};
  uint64_t total() const {
    uint64_t sum = 0;
    for (int i = 0; i < kNumCallSites; ++i) sum += injected[i];
    return sum;
  }
};

class FaultInjector : public SysIface {
 public:
  // `num_cores` bounds the per-core schedule state. Calls reporting a core
  // outside [0, num_cores) are forwarded uninjected.
  FaultInjector(const FaultPlan& plan, int num_cores, SysIface* real = DefaultSys());
  ~FaultInjector() override;

  // Stalls re-check *stop between sleep slices so Stop() is honored while a
  // reactor is wedged. Optional; without it stalls run to their full length.
  void set_stop_flag(const std::atomic<bool>* stop) { stop_ = stop; }

  // Called (from the faulting thread) on every injected fault; the runtime
  // binds this to its rt_fault_injected_* metric cells. Set before the
  // reactor threads start.
  void set_on_inject(std::function<void(CallSite, int core)> fn) { on_inject_ = std::move(fn); }

  int Accept4(int core, int sockfd, sockaddr* addr, socklen_t* addrlen, int flags) override;
  int EpollWait(int core, int epfd, epoll_event* events, int maxevents, int timeout_ms) override;
  int Close(int core, int fd) override;
  int AttachFilter(int core, int sockfd, int level, int optname, const void* optval,
                   socklen_t optlen) override;
  ssize_t Read(int core, int fd, void* buf, size_t count) override;
  ssize_t Write(int core, int fd, const iovec* iov, int iovcnt) override;
  // kErrno fails WITHOUT performing the epoll_ctl: an arming failure, the
  // shape that strands a held connection if the reactor mishandles it.
  int EpollCtl(int core, int epfd, int op, int fd, epoll_event* event) override;
  int Connect(int core, int sockfd, const sockaddr* addr, socklen_t addrlen) override;

  InjectorStats Stats() const;
  uint64_t calls(CallSite site, int core) const;

 private:
  // The first rule firing for this call, or null. Advances the call counter.
  const FaultRule* Match(CallSite site, int core);
  void NoteInjected(CallSite site, int core);
  // kDelay/kStall body: sliced, stop-interruptible sleep.
  void SleepFor(uint64_t duration_us) const;

  FaultPlan plan_;
  int num_cores_;
  SysIface* real_;
  const std::atomic<bool>* stop_ = nullptr;
  std::function<void(CallSite, int core)> on_inject_;
  // [site][core] call counters and injected counters; fixed-size slabs so
  // the hot path stays allocation-free.
  std::unique_ptr<std::atomic<uint64_t>[]> calls_;
  std::unique_ptr<std::atomic<uint64_t>[]> injected_;
  std::unique_ptr<std::atomic<bool>[]> killed_;  // sticky per-core kill latch
};

}  // namespace fault
}  // namespace affinity

#endif  // AFFINITY_SRC_FAULT_INJECTOR_H_
