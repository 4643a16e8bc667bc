// SysIface: the reactor's hot-path syscall surface, made substitutable.
//
// The runtime's failure story (watchdog, failover, shaped overload) is only
// testable if its failure triggers are reproducible. Real EMFILE storms,
// stalled cores, and flaky accept(2)s cannot be scheduled from a unit test,
// so every syscall the reactor's fate depends on -- accept4, epoll_wait,
// close, and the SO_ATTACH_REUSEPORT_CBPF attach -- is routed through this
// one-virtual-call-deep interface. The default implementation is a pure
// passthrough (DefaultSys(), a process-wide singleton with no state); chaos
// runs substitute fault::FaultInjector, which consults a seeded, per-core,
// per-call-site FaultPlan and is deterministic enough to replay in CI.
//
// Every method takes the calling reactor's core index first: the injector
// keys its schedules by (call site, core), and the passthrough ignores it.

#ifndef AFFINITY_SRC_FAULT_SYS_IFACE_H_
#define AFFINITY_SRC_FAULT_SYS_IFACE_H_

#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/uio.h>

namespace affinity {
namespace fault {

class SysIface {
 public:
  // Sentinel EpollWait return: the plan scheduled a reactor death. The
  // reactor must exit Run() as if its thread had been lost -- the watchdog
  // and its peers take it from there. The passthrough never returns this.
  static constexpr int kKillReactor = -2;

  virtual ~SysIface() = default;

  virtual int Accept4(int core, int sockfd, sockaddr* addr, socklen_t* addrlen, int flags);
  virtual int EpollWait(int core, int epfd, epoll_event* events, int maxevents, int timeout_ms);
  // Always releases the fd, even when reporting an injected error -- chaos
  // runs must not leak descriptors.
  virtual int Close(int core, int fd);
  // The cBPF flow-director attach (steer::AttachReuseportProgram routes
  // here). Injected failure exercises the kFallback degradation path.
  virtual int AttachFilter(int core, int sockfd, int level, int optname, const void* optval,
                           socklen_t optlen);

  // The request/response data path (src/svc handlers) and the epoll
  // (re-)arming of held connections. Write is a gather write: the iovcnt
  // buffers go out in one call, in order, the way a framed response (header
  // plus payload) is one writev in the paper's cost model.
  virtual ssize_t Read(int core, int fd, void* buf, size_t count);
  virtual ssize_t Write(int core, int fd, const iovec* iov, int iovcnt);
  virtual int EpollCtl(int core, int epfd, int op, int fd, epoll_event* event);

  // The client side of the seam: rt::LoadClient routes its connect(2)
  // through here (with `core` = the client thread index), so chaos plans
  // can refuse or delay connections from the client's vantage too.
  virtual int Connect(int core, int sockfd, const sockaddr* addr, socklen_t addrlen);
};

// The shared passthrough instance; stateless, safe from every thread.
SysIface* DefaultSys();

}  // namespace fault
}  // namespace affinity

#endif  // AFFINITY_SRC_FAULT_SYS_IFACE_H_
