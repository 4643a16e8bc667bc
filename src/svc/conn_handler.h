// ConnHandler: the pluggable per-connection service API.
//
// A handler is the application layer of the rt runtime: the reactor pops a
// connection off an accept ring, calls OnAccept once, then OnReadable /
// OnWritable as epoll reports readiness, and OnClose exactly once before
// the fd is released. The returned Verdict is literally the epoll event the
// connection needs next (or a close decision), so the reactor's drive loop
// stays a three-way switch.
//
// Handlers are stateless after construction and shared by every reactor
// thread; ALL per-connection state lives in the ConnState the reactor
// passes in (a field of the pooled rt::PendingConn). That is what lets a
// stolen connection continue on the thief: the state machine travels with
// the block, the handler is just code.
//
// All I/O goes through the fault::SysIface seam, keyed by the serving
// reactor's core, so every handler is fault-injectable from day one.

#ifndef AFFINITY_SRC_SVC_CONN_HANDLER_H_
#define AFFINITY_SRC_SVC_CONN_HANDLER_H_

#include <cstdint>
#include <memory>

#include "src/fault/sys_iface.h"
#include "src/svc/conn_state.h"

namespace affinity {
namespace svc {

// What the connection needs next. kWantRead/kWantWrite map 1:1 onto the
// EPOLLIN/EPOLLOUT mask the reactor (re-)arms. The handler returns them
// after the socket said EAGAIN, or kWantRead right after a completed round;
// a request already buffered then is still reported by level-triggered
// epoll.
enum class Verdict : uint8_t {
  kWantRead,
  kWantWrite,
  kClose,     // orderly FIN
  kRstClose,  // protocol violation: SO_LINGER{1,0} reset
};

// Everything a handler callback needs, bundled so signatures stay flat.
// `core` is the SERVING reactor's index -- the fault-injection key -- which
// for a stolen connection is the thief, not the accepting core.
struct ConnRef {
  ConnState* st = nullptr;
  int fd = -1;
  int core = 0;
  fault::SysIface* sys = nullptr;
};

class ConnHandler {
 public:
  virtual ~ConnHandler() = default;

  virtual const char* name() const = 0;

  // First touch after the pop: the state is Reset, the fd is nonblocking.
  // May complete the first round immediately (the request often arrived
  // while the connection sat in the ring). A close verdict here ends the
  // conversation in this call: the reactor never watches the fd, arms no
  // deadline, and closes it at once. Each of the three calls below
  // completes at most one round; the reactor's request ledger relies on it.
  virtual Verdict OnAccept(const ConnRef& c) = 0;
  virtual Verdict OnReadable(const ConnRef& c) = 0;
  virtual Verdict OnWritable(const ConnRef& c) = 0;

  // Exactly once per connection that saw OnAccept, on every close path
  // (verdict, peer error, reactor shutdown). Must not perform I/O on c.fd
  // beyond what a close needs.
  virtual void OnClose(const ConnRef& c) = 0;
};

// The workload axis shared by the runtime, the load client, and the bench:
// which handler fronts the listener / what traffic the client offers.
enum class WorkloadKind : uint8_t {
  kAccept,  // one connection per request: 1 byte, then close (AcceptHandler)
  kEcho,    // echo-N: mirror each request line back, N rounds per connection
  kStatic,  // in-memory object table keyed by the request line
  kStream,  // chunked static content: one response larger than any buffer
};

const char* WorkloadName(WorkloadKind kind);
bool ParseWorkload(const char* name, WorkloadKind* out);

// Knobs for the built-in handlers (unused fields ignored per kind).
struct HandlerParams {
  // kEcho/kStream: server closes after this many rounds; 0 = serve until
  // the client closes.
  int echo_rounds = 0;
  // kStatic: object table shape ("obj<i>" keys, deterministic contents).
  int num_objects = 64;
  int object_bytes = 512;
  // kStream: each response is stream_chunks chunks of stream_chunk_bytes,
  // staged one chunk at a time -- the total is framed up front, so the
  // client sees one large response while the server never holds more than
  // one chunk. Defaults give 64 KiB, comfortably past a loopback socket
  // buffer, so the write path MUST park on kWantWrite mid-response.
  int stream_chunk_bytes = 1024;
  int stream_chunks = 64;
};

// Builds the built-in handler for `kind`; never null.
std::unique_ptr<ConnHandler> MakeHandler(WorkloadKind kind, const HandlerParams& params);

}  // namespace svc
}  // namespace affinity

#endif  // AFFINITY_SRC_SVC_CONN_HANDLER_H_
