// Loopback load generator: closed-loop client threads that connect to the
// runtime and drive its workload. Under kAccept (the legacy mode) each
// connection reads the one-byte response until EOF, RST-closes (the server
// closed first, so a FIN would leave a TIME_WAIT socket on the listen port
// per connection) and reconnects -- connection-per-request, like the
// paper's ab/apachebench setup. Under the
// request/response workloads (echo/static/stream) each connection carries
// `requests_per_conn` newline-terminated requests, reading back the
// "<len>\n<payload>" response per round and stamping a per-request latency
// into a per-thread histogram ledger -- the paper's persistent-connection
// Apache traffic -- and RST-closes after the last round or on giving up
// (this side closes first, so a FIN would leave a TIME_WAIT socket here per
// connection).
//
// Robustness: every blocking call is bounded by connect_timeout_ms, and a
// refused or timed-out connect enters capped exponential backoff with
// jitter -- a restarting or overloaded server sees a decaying retry storm,
// not a synchronized hammer. Outcomes are conserved: every attempt lands in
// exactly one outcome counter (LoadClient::accounted()), so chaos tests can
// balance the client ledger against the server's.
//
// All socket I/O (connect/read/write) routes through a fault::SysIface
// keyed by the client THREAD index, so chaos plans can fault the client
// side of the conversation independently of the server.

#ifndef AFFINITY_SRC_RT_LOAD_CLIENT_H_
#define AFFINITY_SRC_RT_LOAD_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/fault/sys_iface.h"
#include "src/sim/stats.h"
#include "src/svc/conn_handler.h"

namespace affinity {
namespace rt {

// Misbehaving-client modes for the connection-lifecycle deadline subsystem:
// instead of driving the workload, each connection deliberately wedges at a
// chosen point and then waits for the server to reap it. Each mode pins a
// specific server-side deadline class:
//   kHandshake:  connect, send nothing          -> rt_timeouts_handshake
//   kMidRequest: send half a request line, stop -> rt_timeouts_read
//   kMidRead:    send a request, never read the response (tiny SO_RCVBUF so
//                the server's send stalls)      -> rt_timeouts_write
// A reaped connection counts into stalled_reaped(), a separate ledger term:
// the stall was the point, so the reap is success, not an error.
enum class StallMode : uint8_t {
  kNone,
  kHandshake,
  kMidRequest,
  kMidRead,
};

struct LoadClientConfig {
  uint16_t port = 0;
  int num_threads = 4;
  // Stop after this many total completed connections (0 = run until Stop()).
  uint64_t max_conns = 0;
  // Deterministic source ports: when non-empty, thread t cycles through the
  // slice {src_ports[i] : i % num_threads == t}, binding each connection's
  // source port explicitly. The source port is the flow-group key (Section
  // 3.1), so this produces a KNOWN flow-group mix -- build the list with
  // steer::SkewedSourcePorts. Each such connection is RST-closed
  // (SO_LINGER{1,0}) instead of orderly-closed so the 4-tuple never lingers
  // in TIME_WAIT and the port is immediately reusable.
  std::vector<uint16_t> src_ports;
  // Bound on every blocking socket call (connect, read); also how fast
  // Stop() is honored mid-connection. A refused or timed-out connect backs
  // off per kBackoffFirstMs/kBackoffCapMs (src/rt/reactor.h), jittered so
  // client threads desynchronize.
  int connect_timeout_ms = 1000;

  // --- request/response traffic (must match the server's workload) ---

  // kAccept reproduces the legacy read-to-EOF cycle; anything else sends
  // request lines and reads framed responses.
  svc::WorkloadKind workload = svc::WorkloadKind::kAccept;
  // Requests per connection before the client closes. For an echo-N server
  // (HandlerParams::echo_rounds > 0) set this to N; the server closes after
  // the Nth response either way.
  int requests_per_conn = 1;
  // Request payload bytes before the terminating newline (echo).
  int payload_bytes = 64;
  // kStatic: request keys cycle obj0..obj<num_keys-1>.
  int num_keys = 64;
  // Client-side fault seam (core = thread index); null = passthrough.
  fault::SysIface* sys = nullptr;
  // Misbehave instead of completing the workload (see StallMode). With
  // kMidRequest, the connection first completes requests_per_conn - 1 full
  // rounds so per-request deadline re-arming is exercised, then stalls the
  // final request halfway.
  StallMode stall = StallMode::kNone;
};

class LoadClient {
 public:
  explicit LoadClient(const LoadClientConfig& config);
  ~LoadClient();

  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  void Start();
  // Signals the client threads and joins them. Idempotent.
  void Stop();
  // Blocks until max_conns completions (requires max_conns > 0), then stops.
  void WaitForMaxConns();

  // Outcome ledger: attempted() == accounted() once the threads are joined.
  uint64_t attempted() const { return attempted_.load(std::memory_order_relaxed); }
  // The client conservation law: every attempt is exactly one outcome.
  uint64_t accounted() const {
    return completed() + refused() + timeouts() + port_busy() + errors() + aborted_at_stop() +
           stalled_reaped();
  }
  uint64_t completed() const { return completed_.load(std::memory_order_relaxed); }
  uint64_t refused() const { return refused_.load(std::memory_order_relaxed); }
  uint64_t timeouts() const { return timeouts_.load(std::memory_order_relaxed); }
  uint64_t port_busy() const { return port_busy_.load(std::memory_order_relaxed); }
  uint64_t errors() const { return errors_.load(std::memory_order_relaxed); }
  // Conversations Stop() tore down mid-flight: the client walked away, the
  // server did nothing wrong. The client-side mirror of the server's
  // aborted_at_stop term.
  uint64_t aborted_at_stop() const { return aborted_.load(std::memory_order_relaxed); }
  // Stalled connections the server reaped (RST/EOF while we were wedged on
  // purpose): the client-side mirror of the server's rt_timeouts_* closes.
  // Always 0 with stall == kNone.
  uint64_t stalled_reaped() const { return stalled_reaped_.load(std::memory_order_relaxed); }
  // Completed request/response rounds (0 under kAccept). Live.
  uint64_t requests() const { return requests_.load(std::memory_order_relaxed); }

  // Per-thread latency ledgers merged on demand. Call AFTER Stop() (or
  // WaitForMaxConns): merging races thread-local Add()s otherwise.
  Histogram RequestLatencyNs() const;         // per completed request round
  Histogram ConnectLatencyNs() const;         // per successful connect
  Histogram RefusedConnectLatencyNs() const;  // time to receive ECONNREFUSED

 private:
  enum class ConnOutcome {
    kOk,
    kPortInUse,  // bind(src_port) hit EADDRINUSE: retry with the next port
    kRefused,    // connect ECONNREFUSED: nothing listening (yet)
    kTimedOut,       // connect or read exceeded connect_timeout_ms
    kAbortedAtStop,  // Stop() landed mid-conversation
    kStalledReaped,  // deliberate stall ended by the server's reap (success)
    kError,
  };

  // Thread-local latency ledger; histograms allocate at Start(), never in
  // steady state.
  struct ThreadLedger {
    Histogram request_ns;
    Histogram connect_ns;
    Histogram refused_ns;
    uint64_t key_cursor = 0;  // kStatic: rotates the requested object
  };

  void RunThread(int thread_index);
  // One connection's full lifecycle; `src_port` 0 lets the kernel pick an
  // ephemeral port. Increments attempted_ and the outcome counter.
  ConnOutcome OneConnection(int thread_index, uint16_t src_port, ThreadLedger* ledger);
  // The request/response rounds on a connected socket. Returns kOk when
  // `rounds` rounds completed.
  ConnOutcome RunRounds(int thread_index, int fd, ThreadLedger* ledger, int rounds);
  int ConnectSocket(int thread_index, uint16_t src_port, ThreadLedger* ledger,
                    ConnOutcome* outcome);
  // Sends all `len` bytes of `buf`: kOk, kTimedOut (SO_SNDTIMEO) or kError.
  ConnOutcome WriteAll(int thread_index, int fd, const char* buf, int len);
  // The deliberate-stall lifecycle on a connected socket (stall != kNone).
  ConnOutcome RunStalled(int thread_index, int fd, ThreadLedger* ledger);
  // Blocks (SO_RCVTIMEO-bounded reads) until the server reaps the
  // connection -- EOF or RST -> kStalledReaped -- or Stop() lands.
  ConnOutcome AwaitReap(int thread_index, int fd);
  // Same, but WITHOUT reading (kMidRead must keep the receive window
  // jammed): polls for the reap's POLLERR/POLLHUP instead.
  ConnOutcome AwaitReapNoRead(int fd);

  LoadClientConfig config_;
  std::vector<std::thread> threads_;
  std::vector<std::unique_ptr<ThreadLedger>> ledgers_;
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> refused_{0};
  std::atomic<uint64_t> timeouts_{0};
  std::atomic<uint64_t> port_busy_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> aborted_{0};
  std::atomic<uint64_t> stalled_reaped_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<bool> stop_{false};
  bool started_ = false;
};

}  // namespace rt
}  // namespace affinity

#endif  // AFFINITY_SRC_RT_LOAD_CLIENT_H_
