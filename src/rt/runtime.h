// The multithreaded SO_REUSEPORT runtime: N reactor threads executing the
// Affinity-Accept design on live kernel sockets (loopback), in the same
// three arrangements the simulator models (stock / fine / affinity). One
// runtime serves one TCP port with one workload's handler, as the paper
// clones one service's listen socket per core.
//
// Lifecycle: construct -> Start() -> traffic -> Stop() -> Totals().
//
// Observability: all reactor stats live in an obs::MetricsRegistry with
// per-core relaxed-atomic shards, so Totals() and metrics().Snapshot() are
// safe to call from ANY thread WHILE the reactors run -- a live snapshot is
// merely slightly stale (counters are monotone), never racy.
// `drained_at_stop` is the one counter that Stop() bumps rather than a
// reactor, so it only settles after Stop() returns.
// Balancer decisions (steals, busy flips, overflow drops) are additionally
// recorded into an obs::TraceRing for per-decision debugging.

#ifndef AFFINITY_SRC_RT_RUNTIME_H_
#define AFFINITY_SRC_RT_RUNTIME_H_

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/balance/balance_policy.h"
#include "src/fault/failure_domain.h"
#include "src/fault/fault_plan.h"
#include "src/fault/injector.h"
#include "src/obs/hwprof/hwprof.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_ring.h"
#include "src/rt/reactor.h"
#include "src/rt/rt_metrics.h"
#include "src/sim/stats.h"
#include "src/steer/flow_director.h"
#include "src/svc/conn_handler.h"
#include "src/time/clock.h"
#include "src/topo/topology.h"

namespace affinity {
namespace rt {

// listen() backlog per shard; also split across cores as the max local
// accept queue length, exactly like ListenConfig::backlog.
inline constexpr int kListenBacklog = 1024;

struct RtConfig {
  RtMode mode = RtMode::kAffinity;
  int num_threads = 4;
  uint16_t port = 0;  // 0 = kernel-chosen; read back via Runtime::port()
  bool pin_threads = true;

  // Flow-group steering (affinity mode only): route each connection to the
  // core owning its source port's flow group, via a cBPF program on the
  // reuseport group when the kernel permits (degrading to user-space
  // re-steering when not -- see steer::FlowDirector).
  // The table holds FlowDirectorConfig's default 4,096 groups (Section 3.1);
  // read the count back from director()->table().num_groups().
  bool steer = false;
  // Long-term balancer epoch per reactor; <= 0 runs steering without
  // migration (the Section 6.5 no-migration baseline).
  int migrate_interval_ms = 100;
  // Skip the cBPF attach even if the kernel would allow it; exercises the
  // fallback path deterministically (tests, non-root CI).
  bool steer_force_fallback = false;

  // --- fault injection + failure domains (src/fault) ---

  // Chaos schedule for the reactors' syscall surface; empty = passthrough
  // (no injector constructed, no overhead beyond one virtual dispatch).
  fault::FaultPlan fault_plan;
  // Peer-heartbeat timeout for the watchdog; <= 0 disables failure domains
  // entirely (no heartbeats, no failover).
  int watchdog_timeout_ms = 0;
  // Shaped overload: disposition for connections that cannot be queued.
  OverloadPolicy overload = OverloadPolicy::kAcceptThenRst;
  // Overrides the automatic conn-pool sizing (0 = auto: every ring plus a
  // batch). Small values force pool exhaustion for overload tests. Note
  // that held request/response connections occupy blocks beyond the rings'
  // capacity; the auto sizing covers them as long as concurrent held conns
  // stay under one backlog's worth. Beyond that, an accept that finds no
  // free block first evicts the oldest idle held conns (EvictIdleConns)
  // and, failing that, takes the admission shed path -- never a malloc.
  uint32_t pool_blocks_per_core = 0;

  // --- connection-lifecycle deadlines (src/time) ---

  // Per-connection deadlines, all 0 = disabled (a stalled peer then holds
  // its pool block until pool pressure evicts it). Each expiry RST-closes
  // the connection and counts into its class's rt_timeouts_* counter and
  // the conservation equation's timed_out term.
  //   handshake: accept to the first request byte ever.
  //   idle:      between requests (response flushed, next byte not begun).
  //   read:      a started request must finish arriving within this.
  //   write:     a started response must finish flushing within this.
  // Phase deadlines are absolute per phase -- a slowloris trickling one
  // byte per second never extends its current deadline.
  int handshake_timeout_ms = 0;
  int idle_timeout_ms = 0;
  int read_timeout_ms = 0;
  int write_timeout_ms = 0;
  // Test seam: a scripted clock (not owned). Null = CLOCK_MONOTONIC, which
  // the Runtime constructor fills in.
  timer::ClockSource* clock = nullptr;
  // Stop()'s drain deadline: stop accepting, let in-flight conversations
  // finish for up to this long, then abort the remainder. 0 keeps the
  // immediate stop. Positive values require at least one deadline enabled
  // (validation): without per-connection timeouts an idle held connection
  // never finishes, so every drain would just burn the full deadline.
  int drain_deadline_ms = 0;

  // --- hardware locality profiling (src/obs/hwprof) ---

  // Per-reactor grouped perf_event counters attributed to reactor phases
  // (the live Table 3). Off by default: the profiler costs one read(2)
  // every `hwprof_sample_every` phase transitions per reactor when the PMU
  // is reachable, nothing but the entry counters when it is not.
  bool hwprof = false;
  // 1 = read at every transition (exact, for tests); 32 bounds overhead.
  int hwprof_sample_every = 32;
  // Test seam: a scripted CounterSource (not owned). Null = the real
  // perf_event_open source.
  obs::hwprof::CounterSource* hwprof_source = nullptr;

  // --- hardware topology (src/topo) ---

  // kAuto discovers core -> SMT / LLC / NUMA placement from sysfs at
  // Start() and degrades to a flat single-node model with a recorded
  // reason; kFlat skips discovery entirely (the pre-topology behaviour,
  // for baselines and A/B runs). The resolved model orders steal victims,
  // failover parking, and pool arena placement, and splits the locality
  // ledger by distance.
  topo::TopoMode topo_mode = topo::TopoMode::kAuto;
  // Test seam: a scripted TopologySource (not owned). Null = the real
  // sysfs source. Contradicts topo_mode=kFlat (rejected by validation:
  // a scripted topology on a run that discards it was a misread test).
  topo::TopologySource* topo_source = nullptr;

  // --- request/response service layer (src/svc) ---

  // The workload, served by the matching ConnHandler on every connection.
  // kAccept's handler closes every connection in OnAccept, so those never
  // join the epoll set; the others hold connections across epoll rounds.
  svc::WorkloadKind workload = svc::WorkloadKind::kAccept;
  svc::HandlerParams handler;
};

// Rejects contradictory knob combinations BEFORE any socket is bound, with
// an error naming the offending pair -- a scripted topology on a flat run,
// or a drain deadline with every lifecycle timeout off (an idle held
// connection could never finish), means the caller misread what they were
// testing. Called by Runtime::Start(); standalone for config parsers and
// tests.
bool ValidateRtConfig(const RtConfig& config, std::string* error);

// Aggregated over all reactors. Valid at any time (live snapshot); see the
// header comment for the mid-run semantics. Exactly the metric table
// (src/rt/rt_metrics.h) summed: counters and gauges over their labels,
// histograms merged. Facts the table does not count come from the object
// that owns them: topology(), conn_pool() and hwprof().
struct RtTotals : RtMetricFields<uint64_t, Histogram> {
  uint64_t served() const { return served_local + served_remote; }
  // Deadline-expired closes across all four classes: the timed_out term of
  // the conservation equation.
  uint64_t timed_out() const {
    return timeouts_handshake + timeouts_idle + timeouts_read + timeouts_write;
  }
  // The locality score: fraction of requests served on their accepting
  // core (affinity mode should hold it near 1, stock/fine near
  // 1/num_threads). Negative when nothing has been served yet.
  double locality_fraction() const {
    uint64_t den = requests_local_core + requests_remote_core;
    return den > 0 ? static_cast<double>(requests_local_core) / static_cast<double>(den) : -1.0;
  }
  // Connection conservation: every accepted connection is exactly one of
  // served (closed after service), currently open, aborted by a stopping
  // reactor, drained at stop, overflow-dropped, admission-shed, or closed
  // by a lifecycle deadline. The chaos tests gate on this equation holding
  // after every run (open_conns settles to 0 once Stop() has joined the
  // reactors).
  uint64_t accounted() const {
    return served() + open_conns + aborted_at_stop + drained_at_stop + overflow_drops +
           admission_shed + timed_out();
  }
};
static_assert(sizeof(RtTotals) == sizeof(RtMetricFields<uint64_t, Histogram>),
              "RtTotals is the metric table; read other facts from their owner");

class Runtime {
 public:
  explicit Runtime(const RtConfig& config);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // Binds the listen socket (one per reactor outside stock mode) and launches the reactor threads. Returns
  // false with *error set on socket failures.
  bool Start(std::string* error);

  // Signals the reactors, joins them, closes the listen sockets and any
  // still-queued connections. Idempotent, and the Runtime is restartable:
  // a later Start() launches a fresh set of reactors (new port when
  // config.port == 0). Metrics accumulate across restarts, so the
  // conservation equation holds cumulatively.
  //
  // With config.drain_deadline_ms > 0 (validated by Start()) it drains
  // first: new connections are refused (listen fds unwatched; the kernel
  // RSTs or times out late SYNs once the sockets close), in-flight
  // conversations keep being served until they finish or the deadline
  // elapses, then the reactors exit and abort whatever remains
  // (aborted_at_stop). Conns that finish during the window count into
  // rt_drained_gracefully; the drain's wall duration is one sample in the
  // rt_drain_duration_ns histogram. 0 = immediate.
  void Stop();

  // The bound port (after Start()).
  uint16_t port() const { return port_; }

  const RtConfig& config() const { return config_; }

  int max_local_queue_len() const { return max_local_len_; }

  // The per-core PendingConn slab pool; null before Start(). Stats are
  // safe to read while the reactors run.
  const ConnPool* conn_pool() const { return pool_.get(); }

  // The live metrics backing every stat below; snapshot or export it at
  // any time (obs::ToPrometheusText / obs::ToJson / obs::StatsSampler).
  const obs::MetricsRegistry& metrics() const { return *metrics_; }

  // The resolved hardware topology (after Start()); never null while the
  // reactors run. Flat either by config (topo_mode=kFlat) or degradation
  // (topology()->flat_reason() says why).
  const topo::Topology* topology() const { return topo_.get(); }

  // Balancer decision trace: each core's trailing window of decisions
  // (steals, busy flips, drops and sheds, migrations, failovers),
  // capacity_per_core() slots deep. Never null.
  const obs::TraceRing* trace() const { return trace_.get(); }

  // The hardware profiler; null unless config.hwprof. Availability and the
  // estimate accessors are safe while the reactors run; per-core
  // unavailable_reason() settles once Stop() has joined them.
  const obs::hwprof::HwProf* hwprof() const { return hwprof_.get(); }

  // The flow-group steering table; null unless config.steer was on in
  // affinity mode. Valid while the reactors run.
  const steer::FlowDirector* director() const { return director_.get(); }

  // The chaos injector; null unless config.fault_plan has rules. Valid
  // while the reactors run.
  const fault::FaultInjector* injector() const { return injector_.get(); }

  // Heartbeats + alive/dead states; null unless config.watchdog_timeout_ms
  // is positive. Valid while the reactors run.
  const fault::FailureDomains* domains() const { return domains_.get(); }

  // Live aggregate snapshot; callable while the reactors run.
  // `drained_at_stop` grows only when Stop() completes.
  RtTotals Totals() const;

 private:
  RtConfig config_;
  uint16_t port_ = 0;
  int max_local_len_ = 0;
  // The workload's handler, shared by every reactor (rebuilt each Start).
  std::unique_ptr<svc::ConnHandler> handler_;
  std::unique_ptr<topo::Topology> topo_;
  std::unique_ptr<ConnPool> pool_;
  std::unique_ptr<BalancePolicy> policy_;
  std::unique_ptr<steer::FlowDirector> director_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<fault::FailureDomains> domains_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<obs::TraceRing> trace_;
  std::unique_ptr<obs::hwprof::HwProf> hwprof_;
  RtMetricIds ids_;
  ReactorShared shared_;
  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::vector<std::thread> threads_;
  bool started_ = false;
};

}  // namespace rt
}  // namespace affinity

#endif  // AFFINITY_SRC_RT_RUNTIME_H_
