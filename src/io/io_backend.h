// IoBackend: the reactor's event engine -- level-triggered epoll over the
// listen shards and the held connections.
//
// The engine only reports readiness; the reactor does the I/O. A listen
// event means "accept4 will succeed" and the reactor drains the shard itself
// (Reactor::AcceptBatch); a connection event means the handler's read or
// write can make progress; a doorbell event means a peer or the Runtime woke
// this reactor (an eventfd write) and carries no I/O. Conn arming goes
// through sys->EpollCtl (the kEpollCtl fault site) and the wait through
// sys->EpollWait (the kEpollWait fault site, including the kKillReactor
// chaos sentinel). Listen and doorbell registrations bypass the fault seam:
// chaos plans target the hot path, and a failed listen ADD at startup must
// surface as a dead source, not an injected flake.
//
// Why the paper's accept fix does not depend on the engine, and what a
// completion-model engine would have to show to join this one, is recorded
// in DESIGN.md section 5j.
//
// Token scheme (carried verbatim in epoll_event.data.u64):
//  - bit 63 set = connection: bits [32,48) are the PendingConn block's reuse
//    generation, bits [0,32) the ConnHandle. The generation is the
//    stale-event defense: one epoll batch can hold an event for a conn that
//    an earlier event in the same batch closed and recycled (a pool-pressure
//    eviction inside AcceptBatch), and the reactor drops it by comparing
//    generations.
//  - kDoorbellToken (bit 62 alone) = the engine's one doorbell eventfd.
//  - otherwise  = listen source: bits [0,32) the listen fd. Listen fds are
//    nonnegative ints, so neither tag bit can collide.

#ifndef AFFINITY_SRC_IO_IO_BACKEND_H_
#define AFFINITY_SRC_IO_IO_BACKEND_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/fault/sys_iface.h"

namespace affinity {
namespace io {

inline constexpr uint64_t kConnTokenTag = 1ull << 63;
inline constexpr uint64_t kDoorbellToken = 1ull << 62;

inline uint64_t MakeConnToken(uint32_t handle, uint16_t gen) {
  return kConnTokenTag | (static_cast<uint64_t>(gen) << 32) | handle;
}
inline uint64_t MakeListenToken(int fd) {
  return static_cast<uint64_t>(static_cast<uint32_t>(fd));
}
inline bool IsConnToken(uint64_t token) { return (token & kConnTokenTag) != 0; }
inline bool IsDoorbellToken(uint64_t token) { return token == kDoorbellToken; }
inline uint32_t HandleOfToken(uint64_t token) { return static_cast<uint32_t>(token); }
inline int FdOfListenToken(uint64_t token) { return static_cast<int>(static_cast<uint32_t>(token)); }
inline uint16_t GenOfToken(uint64_t token) { return static_cast<uint16_t>(token >> 32); }

// One readiness event: the registration's token and its EPOLL* mask.
struct IoEvent {
  uint64_t token = 0;
  uint32_t events = 0;  // EPOLLIN/EPOLLOUT/EPOLLERR/EPOLLHUP readiness
};

// One instance per reactor thread, used only by that thread; Init happens
// inside Reactor::Run() after pinning.
class IoBackend {
 public:
  // `core` keys the SysIface calls; `sys` must outlive the engine.
  IoBackend(int core, fault::SysIface* sys) : core_(core), sys_(sys) {}
  ~IoBackend() { Shutdown(); }
  IoBackend(const IoBackend&) = delete;
  IoBackend& operator=(const IoBackend&) = delete;

  // Creates the epoll instance. False with *error set (when non-null) means
  // this reactor cannot run.
  bool Init(std::string* error);
  void Shutdown();

  // Starts or stops watching a listen fd for accept readiness.
  bool WatchListen(int fd);
  void UnwatchListen(int fd);

  // Watches the reactor's doorbell eventfd (level-triggered: readable until
  // the reactor reads it back to zero), reported as kDoorbellToken. The fd
  // stays the caller's; Shutdown's close of the epoll instance drops it.
  bool WatchDoorbell(int fd);

  // (Re-)arms `events` (EPOLLIN or EPOLLOUT) for a held connection: ADD when
  // `first`, MOD after. close() drops the registration, so there is no
  // disarm. False = the connection cannot be watched and must be closed.
  bool ArmConn(int fd, uint32_t events, uint64_t token, bool first);

  // Blocks up to timeout_ms (-1 = until an event) for events; returns the
  // count filled into `out`, 0 on timeout/EINTR, -1 on a hard engine error,
  // or fault::SysIface::kKillReactor when a chaos plan killed this reactor.
  int Wait(IoEvent* out, int max_events, int timeout_ms);

 private:
  int core_;
  fault::SysIface* sys_;
  int ep_ = -1;
};

// The one engine kind. Callers that build the engine by kind
// (rtbench/layers.cc) go through this factory.
enum class IoBackendKind : uint8_t { kEpoll };

std::unique_ptr<IoBackend> CreateIoBackend(IoBackendKind kind, int core, fault::SysIface* sys);

}  // namespace io
}  // namespace affinity

#endif  // AFFINITY_SRC_IO_IO_BACKEND_H_
