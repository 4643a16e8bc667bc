// Per-core pending-connection ring for the real-socket runtime.
//
// Replaces the original mutex+deque AcceptQueue: the runtime analogue of
// the simulator's cloned accept queues (src/stack/listen_socket.cc), but
// built for the paper's Table 3 accounting -- the queue itself is a
// bounded, allocation-free MPMC ring (src/mem/bounded_ring.h), and the
// connections it carries are handles into a per-core slab pool
// (src/mem/conn_pool.h) so the steady-state accept->serve lifecycle never
// touches the heap:
//  - the accepting reactor allocates a PendingConn from ITS core's pool
//    and pushes the 32-bit handle onto the target ring,
//  - the serving reactor (usually the same core; a thief or re-steer
//    target otherwise) reads the block and frees it back to the OWNER's
//    pool -- a plain local push in the common case, a counted remote free
//    (the paper's slow path) when the connection crossed cores.
// Stock mode shares a single ring to reproduce the global accept-queue
// bottleneck; the ring being lock-free does not save it from the shared
// head/tail cache lines, which is the point.

#ifndef AFFINITY_SRC_RT_ACCEPT_RING_H_
#define AFFINITY_SRC_RT_ACCEPT_RING_H_

#include <atomic>
#include <chrono>
#include <cstddef>

#include "src/mem/bounded_ring.h"
#include "src/mem/conn_pool.h"
#include "src/svc/conn_state.h"
#include "src/time/timer_wheel.h"

namespace affinity {
namespace rt {

// A connection that completed the kernel handshake and was accept()ed but
// not yet handed to application code. Lives in a ConnPool block. The
// embedded svc::ConnState (request/response cursors + staging buffers) is
// what lets a handler-driven connection survive across epoll rounds without
// any heap allocation: the whole per-connection footprint is this one pool
// block, recycled on close.
struct PendingConn {
  int fd = -1;
  // Block-reuse generation for the event engine's stale-event defense:
  // bumped on every free, carried in bits [32,48) of the conn token
  // (io::MakeConnToken), so an event raced against close-and-recycle is
  // recognized and dropped instead of driving the wrong conversation.
  // NEVER cleared by ConnState::Reset -- continuity across reuse is the
  // point. Atomic because the bump can happen on the serving core while the
  // owning reactor decodes a token (relaxed: the value only gates, never
  // orders).
  std::atomic<uint16_t> io_gen{0};
  std::chrono::steady_clock::time_point accepted_at{};
  // Lifecycle deadline, intrusive in the pool block so arming/cancelling a
  // timer per request never allocates. It belongs to the SERVING reactor's
  // wheel (armed at first service touch, cancelled on every close path
  // before the block is freed) and tracks the current conversation phase
  // (handshake/idle/read/write -- re-armed only when the phase KIND
  // changes, so a byte-trickling slowloris cannot extend it).
  timer::TimerEntry phase_timer;
  svc::ConnState svc;
};

// One pool block per in-flight accepted connection, owned by the core that
// accept()ed it: the handle's owner is the locality ledger's accepting core.
using ConnPool = PerCorePool<PendingConn>;
using ConnHandle = ConnPool::Handle;
inline constexpr ConnHandle kNullConn = ConnPool::kNullHandle;

// The per-core accept queue: a bounded ring of pool handles. `capacity` is
// the max local accept queue length (kListenBacklog split across cores);
// pushes beyond it are refused, mirroring the kernel dropping connections
// on accept-queue overflow.
using AcceptRing = BoundedRing<ConnHandle>;

}  // namespace rt
}  // namespace affinity

#endif  // AFFINITY_SRC_RT_ACCEPT_RING_H_
