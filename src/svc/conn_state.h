// Per-connection service state for the request/response layer.
//
// The paper's workloads (Section 6: Apache serving the SpecWeb-like mix)
// are request/response conversations on held connections, not one-shot
// accepts. That means connection state must outlive a single epoll round:
// a partially read request, a partially written response, and the epoll
// event mask the reactor last armed all have to live somewhere between
// wakeups. That somewhere is this struct, embedded in the pooled
// rt::PendingConn block -- so the steady-state request/response lifecycle
// stays zero-malloc (the rt_allocfree_test gate), and a stolen connection
// carries its conversation with it to the thief.
//
// Deliberately trivially destructible (fixed char arrays, no owning
// members): PerCorePool requires it, and it is what makes a block reusable
// with a plain Reset() instead of destructor bookkeeping.

#ifndef AFFINITY_SRC_SVC_CONN_STATE_H_
#define AFFINITY_SRC_SVC_CONN_STATE_H_

#include <cstdint>

namespace affinity {
namespace svc {

// Request staging capacity. Requests are one newline-terminated line; a
// line that overflows this is a protocol violation (RST-closed), never a
// reallocation.
inline constexpr uint32_t kReqBufBytes = 2048;

// Response header staging: "<payload-len>\n" in decimal.
inline constexpr uint32_t kHeadBufBytes = 16;

// Where the conversation stands between epoll rounds.
enum class ConnPhase : uint8_t {
  kReading,  // accumulating a request line into req_buf
  kWriting,  // flushing head_buf then the response payload
};

struct ConnState {
  ConnPhase phase = ConnPhase::kReading;
  bool remote_served = false;  // popped from another core's ring (steal/re-steer)
  // Locality ledger: distance class of serving core vs accepting core
  // (src/topo LedgerBucket: 0 local, 1 same LLC, 2 cross LLC, 3 cross
  // node). 0 means the serving core IS the accepting core -- distinct from
  // !remote_served, which is about RINGS: stock mode's single shared ring
  // makes every pop "local" even when the conversation crossed cores, and
  // steering can park a conn on a ring that is neither the accepting nor
  // the serving core. Requests completed on this connection count into
  // rt_requests_local_core (0) or rt_requests_remote_core plus the
  // distance split (1..3).
  uint8_t accept_dist = 0;

  uint32_t rounds_done = 0;  // completed request/response rounds

  // The epoll event mask currently registered for this connection's fd;
  // 0 = not registered (the reactor is driving it eagerly).
  uint32_t armed = 0;

  uint32_t req_len = 0;  // bytes staged in req_buf so far

  // kStream: payload chunks still owed after the one currently staged in
  // the response cursor. The handler restages the cursor (RestageChunk)
  // each time it drains until this hits zero, so a multi-buffer response
  // survives kWantWrite parking without the state machine growing a phase.
  uint32_t stream_remaining = 0;

  // Response cursor. resp_data points into req_buf (echo) or into
  // handler-owned storage that outlives every connection (static content);
  // the handler never copies payload bytes.
  const char* resp_data = nullptr;
  uint32_t resp_len = 0;
  uint32_t resp_off = 0;
  uint32_t head_len = 0;
  uint32_t head_off = 0;

  // Per-request service latency: stamped when the first byte of a request
  // arrives, read back by the reactor when the response completes.
  uint64_t req_start_ns = 0;
  uint64_t last_request_ns = 0;

  // Intrusive doubly-linked list of a reactor's open connections (handles
  // into the conn pool), so Run() exit can close every held connection it
  // still owns. 0xFFFFFFFF (rt::kNullConn) terminates.
  uint32_t open_prev = 0xFFFFFFFFu;
  uint32_t open_next = 0xFFFFFFFFu;

  // Idle as the deadline subsystem and the pool-pressure evictor define it:
  // parked waiting for request bytes with nothing staged. True both before
  // the first byte ever (handshake phase) and between requests -- exactly
  // the states a slowloris client pins.
  bool IdleBetweenRequests() const {
    return phase == ConnPhase::kReading && req_len == 0;
  }

  char head_buf[kHeadBufBytes];
  char req_buf[kReqBufBytes];

  // Fresh-conversation state for a block coming out of the pool. Buffers
  // are left as-is: req_len/resp cursors gate every read of them. The
  // parameter is unused; it stays until rtbench/layers.cc calls Reset().
  void Reset(uint8_t = 0) {
    phase = ConnPhase::kReading;
    remote_served = false;
    accept_dist = 0;
    rounds_done = 0;
    armed = 0;
    req_len = 0;
    stream_remaining = 0;
    resp_data = nullptr;
    resp_len = 0;
    resp_off = 0;
    head_len = 0;
    head_off = 0;
    req_start_ns = 0;
    last_request_ns = 0;
    open_prev = 0xFFFFFFFFu;
    open_next = 0xFFFFFFFFu;
  }
};

}  // namespace svc
}  // namespace affinity

#endif  // AFFINITY_SRC_SVC_CONN_STATE_H_
