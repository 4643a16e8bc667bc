// One reactor thread: pinned to a core, an epoll event loop (io::IoBackend)
// over its listen shard, serving connections from per-core accept rings
// with optional stealing. A Runtime serves one listen socket with one
// handler: stock mode's one shared fd, or one SO_REUSEPORT shard per
// reactor.
//
// This is the live-socket counterpart of the simulator's accept paths in
// src/stack/listen_socket.cc, in the same three arrangements:
//  - stock:    every reactor polls ONE shared listen socket and one shared
//              accept ring (thundering herd + shared-line contention),
//  - fine:     per-core SO_REUSEPORT shards and rings, but service is
//              round-robin over all rings through a shared cursor
//              (no affinity, like Fine-Accept),
//  - affinity: per-core shards and rings, local-first service, with
//              short-term connection stealing driven by the exact same
//              BalancePolicy (watermarks, EWMA, 5:1 share) the simulator
//              uses.
//
// Hot-path discipline (the Table 3 refactor): the reactor loop is batched
// and allocation-free in steady state --
//  - each listen wakeup asks the shard for its accept-queue depth
//    (TCP_INFO) and calls accept4 that many times, capped at kReactorBatch,
//    into a stack array, so no accept4 on a TCP shard returns EAGAIN; each
//    connection gets a PendingConn block from the accepting core's slab
//    pool and its 32-bit handle is pushed onto the target ring (no mutex,
//    no heap),
//  - queue lengths / EWMA updates are reported to the BalancePolicy once
//    per touched queue per batch (OnEnqueueBatch/OnDequeueBatch), not per
//    connection, so the policy's shared state is touched per batch,
//  - metric updates go through cells pre-resolved at thread start
//    (obs::MetricsRegistry::Cell), one relaxed add on a core-private line,
//  - settings are read from the Runtime's RtConfig (ReactorShared::config,
//    never copied); what the loop derives from them -- each deadline class
//    in ns -- is computed once per Run().

#ifndef AFFINITY_SRC_RT_REACTOR_H_
#define AFFINITY_SRC_RT_REACTOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/balance/balance_policy.h"
#include "src/fault/failure_domain.h"
#include "src/fault/sys_iface.h"
#include "src/io/io_backend.h"
#include "src/obs/hwprof/hwprof.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_ring.h"
#include "src/rt/accept_ring.h"
#include "src/rt/rt_metrics.h"
#include "src/steer/flow_director.h"
#include "src/svc/conn_handler.h"
#include "src/time/timer_wheel.h"
#include "src/topo/topology.h"

namespace affinity {
namespace rt {

enum class RtMode : uint8_t { kStock, kFine, kAffinity };

const char* RtModeName(RtMode mode);

// The most connections one listen wakeup accepts, and the most one serve
// batch pops. The kernel's queue depth sizes each drain; this bounds the
// drain's stack array and how long one pass keeps the loop from epoll.
inline constexpr int kReactorBatch = 64;

// The tick of each reactor's deadline wheel. Deadlines are set in whole
// milliseconds, so none is finer than one tick.
inline constexpr uint64_t kTimerTickNs = 1'000'000;

// Capped exponential backoff: the reactor's accept backoff after
// EMFILE/ENFILE and the load client's reconnect backoff after a refused or
// timed-out connect both open a 1 ms window and double it up to 100 ms --
// long enough for fds (or a listener) to come back, short enough that the
// listen backlog keeps a bound on client-visible latency. The client sleeps
// a uniform draw from [window/2, window]; its per-thread jitter streams
// derive from kBackoffJitterSeed.
inline constexpr int kBackoffFirstMs = 1;
inline constexpr int kBackoffCapMs = 100;
inline constexpr uint64_t kBackoffJitterSeed = 1;

// What to do with an accepted connection that cannot be queued (its target
// ring is full or the conn pool is dry):
//  - kAcceptThenRst sheds it immediately with an RST, telling the client to
//    fail fast and retry elsewhere.
//  - kLeaveInBacklog stops draining accept4 while the local ring is full,
//    letting the kernel's listen backlog absorb the burst (the paper's
//    Section 3.3 bounded-queue argument: overload turns into bounded
//    queueing, not unbounded work). The connection already accepted when
//    the ring filled is closed in order (counted as an overflow drop).
enum class OverloadPolicy : uint8_t { kAcceptThenRst, kLeaveInBacklog };

// Which lifecycle phase deadline a connection is living under -- the
// TimerEntry kind tag. Values 1..4 index the
// rt_timeouts_{handshake,idle,read,write} counters.
enum class DeadlineKind : uint8_t {
  kHandshake = 1,  // accepted, waiting for the first request byte ever
  kIdle,           // between requests (>= 1 round done, nothing staged)
  kRead,           // mid-request: first byte seen, line incomplete
  kWrite,          // mid-response: flush parked on kWantWrite
};

// Event user-data tagging lives in src/io/io_backend.h (io::MakeConnToken /
// io::MakeListenToken): bit 63 = connection handle + reuse generation,
// otherwise a listen fd.

// Registry handles for every table metric (src/rt/rt_metrics.h);
// registered once by the Runtime before the reactor threads start.
using RtMetricIds =
    RtMetricFields<obs::MetricsRegistry::MetricId, obs::MetricsRegistry::MetricId>;

struct RtConfig;

// State shared by every reactor of one Runtime: the objects, rings, fds and
// flags the reactors share. Settings live in the Runtime's RtConfig only.
struct ReactorShared {
  // The Runtime's configuration (never null; constant while reactors run).
  // Its clock is resolved at construction, so it is never null either.
  const RtConfig* config = nullptr;
  // 1 entry (stock) or one per reactor (fine/affinity).
  std::vector<std::unique_ptr<AcceptRing>> queues;
  // Per-core PendingConn slab pool (owned by the Runtime; never null while
  // reactors run). Blocks are allocated on the accepting core and returned
  // to it, possibly remotely, by the serving core.
  ConnPool* pool = nullptr;
  // The lock-free Section 3.3.1 policy, shared by every reactor; each binds
  // its own core (BindOwner) in Run(). Null outside affinity mode.
  BalancePolicy* policy = nullptr;
  // Hardware distance model (owned by the Runtime; never null while
  // reactors run -- flat on hosts without sysfs topology). Classifies every
  // remote serve and steal into the distance ledger.
  const topo::Topology* topo = nullptr;
  // Live metrics (owned by the Runtime; never null while reactors run).
  obs::MetricsRegistry* metrics = nullptr;
  RtMetricIds ids;
  // Balancer decision trace (owned by the Runtime; never null while
  // reactors run).
  obs::TraceRing* trace = nullptr;
  // Flow-group steering table + long-term balancer; null when steering is
  // off (affinity mode only). Owned by the Runtime.
  steer::FlowDirector* director = nullptr;
  // Syscall surface for the hot path; never null while reactors run
  // (fault::DefaultSys passthrough, or the FaultInjector in chaos runs).
  fault::SysIface* sys = nullptr;
  // Hardware profiler; null when hwprof is off. Reactors attach their
  // thread at Run() start and feed phase transitions to it.
  obs::hwprof::HwProf* hwprof = nullptr;
  // Heartbeats + alive/dead state; null when the watchdog is disabled.
  fault::FailureDomains* domains = nullptr;
  // Serializes every failover/recovery state transition AND its actions
  // (forced-busy flips, flow-group mass moves, listen-shard adoption), so a
  // recovering reactor can never interleave with a concurrent failover.
  std::mutex failover_mu;
  // The listen socket: one shared fd every reactor polls (stock mode), or
  // one SO_REUSEPORT shard per reactor, indexed by core. Owned and closed
  // by the Runtime; a failover winner adopts a dead peer's shard from here.
  std::vector<int> listen_fds;
  // The workload's handler (svc::AcceptHandler for the accept workload),
  // shared by all reactors; never null while reactors run.
  svc::ConnHandler* handler = nullptr;
  // Fine-Accept's shared round-robin dequeue cursor -- deliberately one
  // contended cache line, as in the paper.
  std::atomic<uint64_t> rr_cursor{0};
  // Graceful drain (Runtime::Stop with a drain deadline): reactors unwatch
  // their listen sources and stop accepting but keep serving queued and
  // open connections; normal closes during the window count
  // drained_gracefully. `stop` follows when the runtime observes zero open
  // conns + empty rings or the deadline expires.
  std::atomic<bool> draining{false};
  std::atomic<bool> stop{false};

  // Exports the director's live state: rt_steer_cbpf (1 while the cBPF
  // program is attached) and every core's rt_steer_groups_owned. Called
  // after each steering-table rewrite -- Start, a migration, a failover, a
  // recovery -- so a re-attach the kernel refused, which drops the director
  // to fallback, reaches the gauge too. Reads and writes under the director
  // mutex (FlowDirector::Snapshot), so one reactor's older snapshot cannot
  // land after a peer's newer one: the per-core gauges always sum to the
  // table's group count and end on its final state. Needs a director.
  void PublishSteering() const;
};

class Reactor {
 public:
  // The listen fd is this reactor's shard of shared->listen_fds, or the
  // one shared fd in stock mode; the Runtime owns and closes them all.
  Reactor(int index, ReactorShared* shared);

  // Thread body: loops until shared->stop. Closes nothing but the fds it
  // serves and its epoll instance. All stats land in shared->metrics, so
  // any thread can read them while this one runs.
  void Run();

 private:
  // Per-batch aggregation for one side (enqueue or dequeue) of the rings:
  // how many connections a batch moved per queue and the last observed
  // length, flushed to the policy/gauges once per batch. Sized once at
  // thread start; no steady-state allocation.
  struct QueueBatch {
    struct PerQueue {
      uint32_t moved = 0;
      size_t last_len = 0;
    };
    std::vector<PerQueue> q;        // one entry per accept ring
    std::vector<uint32_t> touched;  // queue indices with moved > 0
    void NoteMove(size_t qi, size_t len_after) {
      PerQueue& entry = q[qi];
      if (entry.moved == 0) {
        touched.push_back(static_cast<uint32_t>(qi));
      }
      ++entry.moved;
      entry.last_len = len_after;
    }
  };

  // Listen fds this reactor drains: sources_[0] is its own (its shard, or
  // the shared fd), then shards adopted from dead peers (qi = the dead
  // core's ring).
  struct ListenSource {
    int fd = -1;
    uint32_t qi = 0;
  };

  // One accepted-but-not-yet-admitted connection, staged on the stack
  // between accept4 handing us the fd and AdmitBatch.
  struct Accepted {
    int fd;
    uint32_t qi;
  };

  // The accept path: reads the depth of `src`'s accept queue once, calls
  // accept4 that many times (capped at kReactorBatch) into a stack array
  // (stage 1), then admits via AdmitBatch. A failed depth query drains
  // until EAGAIN instead. A reactor normally drains only its own source;
  // after a failover it also drains adopted shards.
  void AcceptBatch(const ListenSource& src);
  // Stages 2+3: pool blocks + ring pushes per accepted connection
  // (ShedOrDrop on a full ring or dry pool, after EvictIdleConns failed to
  // refill the pool), then one flush per touched ring (gauges + policy
  // EWMA) and the batch counters.
  void AdmitBatch(const Accepted* batch, int n);
  // Serves up to kReactorBatch queued connections; returns how many.
  // Dequeue-side policy reporting is flushed once at the end of the batch.
  int ServeBatch();
  // Picks and pops one connection per the mode's service discipline.
  // Affinity mode runs ServeAffinityOrder (src/balance/balance_policy.h),
  // the simulator's accept order by the same code; `idle` marks the
  // pre-sleep pass, where that order widens to the polling scan. Returns
  // false when nothing was available.
  bool ServeOne(bool idle);
  // First touch of a popped connection: records its locality and runs the
  // handler's OnAccept. A close verdict there (the accept workload's only
  // verdict) releases the connection at once; any other verdict makes it
  // join this reactor's open list + epoll set until a close verdict.
  void Serve(ConnHandle handle, bool local);
  // Readiness on a held connection: run the phase-appropriate handler
  // callback and apply its verdict.
  void DriveConn(ConnHandle handle, uint32_t ev_events);
  // Applies a handler verdict: (re-)arm epoll or close the connection.
  void Finish(ConnHandle handle, PendingConn* conn, svc::Verdict verdict);
  // Arms `want` (EPOLLIN or EPOLLOUT) for the connection's fd, ADD on first
  // registration, MOD after. An arming failure closes the connection with a
  // reset -- a conn epoll cannot see would be held forever -- and returns
  // false; deadline arming must not touch the conn after that.
  bool Arm(ConnHandle handle, PendingConn* conn, uint32_t want);
  // Every close path for a connection on the open list: timer cancel,
  // open-list removal, then ReleaseConn. `unserved` is the ledger
  // cell a close that is not service counts into instead of served: a
  // deadline class's rt_timeouts_* (expiry or pool-pressure eviction) or
  // rt_aborted_at_stop (CloseAllOpen). Null = served.
  void CloseConn(ConnHandle handle, PendingConn* conn, bool rst,
                 std::atomic<uint64_t>* unserved = nullptr);
  // The end every closed conversation shares, including one that OnAccept
  // closed before it joined the open list: OnClose hook, close (RST on
  // protocol violations and timeouts), served or `unserved` accounting,
  // pool free.
  void ReleaseConn(ConnHandle handle, PendingConn* conn, bool rst,
                   std::atomic<uint64_t>* unserved);
  // Returns the block to its owner's pool, counting remote frees.
  void FreeConn(ConnHandle handle);
  void OpenListAdd(ConnHandle handle, PendingConn* conn);
  void OpenListRemove(ConnHandle handle, PendingConn* conn);
  // Run() exit: CloseConn every connection still held open, an orderly
  // close counted into rt_aborted_at_stop (not served), so the pool drains
  // and the conservation ledger stays exact. Runs on the kill path too: a "dead"
  // reactor's process would have had its fds closed by the kernel anyway.
  void CloseAllOpen();
  // Request-counter + latency-histogram bookkeeping after a handler call.
  // A call completes at most one round, so `rounds_done - prev_rounds` is 0
  // or 1.
  void NoteRounds(PendingConn* conn, uint32_t prev_rounds);
  // Pops from ring `qi` into the dequeue batch (policy hook deferred to
  // FlushDequeues).
  bool PopFrom(size_t qi, ConnHandle* out);
  // Reports the dequeue batch: queue-length gauges, OnDequeueBatch policy
  // hooks, and the served-local/remote counter cells.
  void FlushDequeues();
  // Resolves the hot-path metric cells for this core (after registration,
  // before traffic).
  void ResolveHotCells();
  // Metrics + trace bookkeeping for a successful steal from `victim` (the
  // policy already heard of it from ServeAffinityOrder).
  void RecordSteal(CoreId victim, size_t victim_len_after);
  // Busy-bit flip bookkeeping after a policy enqueue/dequeue hook fired.
  void RecordBusyFlip(size_t queue, size_t len_after);
  // This core's 100 ms long-term balancer decision (Section 3.3.2): runs the
  // FlowDirector migration and records metrics + the kMigrate trace event.
  void MigrationTick();

  // --- lifecycle deadlines ---
  // After a verdict parked the connection (kWantRead/kWantWrite): classify
  // the phase it parked in and arm/refresh the phase deadline. Re-arms only
  // when the phase KIND changed; same-kind progress (a slowloris trickle)
  // leaves the original absolute deadline standing.
  void ArmPhaseDeadline(ConnHandle handle, PendingConn* conn, bool want_read);
  // Timer-wheel expiry: classified RST close of the conn the entry is
  // embedded in.
  void OnDeadlineExpiry(timer::TimerEntry* e);
  // The io_->Wait timeout: the 1 ms heartbeat/steal-visibility cap,
  // shortened when the wheel's next deadline is nearer.
  int NextWaitTimeoutMs();
  // Pool-pressure reaper, run by every failed Alloc: closes up to
  // kEvictBatch of the OLDEST idle conns on this reactor's open list --
  // blocks owned by this core first, so the freed block lands on the
  // freelist the failing Alloc reads. Returns how many were closed; 0 on a
  // reactor that holds no idle conn (any accept-workload reactor), which
  // then sheds.
  int EvictIdleConns();

  // --- failure domains ---
  // Scans peer heartbeats; for each stalled peer attempts the failover CAS
  // and, on winning, runs the failover actions. Also returns adopted shards
  // whose owner has come back.
  void WatchdogTick(fault::WatchdogMonitor* monitor);
  // The failover actions for `dead`, run under shared_->failover_mu by the
  // reactor that won the MarkDead CAS.
  void TryFailover(int dead);
  // Called when this reactor finds its own state is kDead (it was stalled
  // and a peer failed it over): CAS back to alive and reverse the failover.
  void SelfRecover();
  // Removes adopted shards whose owner recovered (watchdog cadence).
  void ReleaseRecoveredAdoptions();

  // --- shaped overload ---
  // Disposes of an accepted-but-unqueueable connection per the admission
  // policy; returns true when it was shed with an RST (admission_shed),
  // false when it was closed in order (overflow_drop).
  bool ShedOrDrop(int fd, size_t qi);
  // RST-close: SO_LINGER{1,0} so the kernel sends a reset, telling the
  // client to fail fast rather than read a clean EOF.
  void RstClose(int fd);
  // EMFILE/ENFILE rescue: burn the reserve fd to accept-and-RST one
  // connection (so the backlog keeps moving), then re-arm the reserve and
  // enter capped exponential accept backoff: the listen sources leave the
  // epoll set until the window closes, so the loop sleeps instead of
  // spinning on a readiness it will not act on.
  void FdExhaustionRescue(int listen_fd);
  // The one listen-watch rule: puts every listen source in the epoll set
  // when this reactor should accept (not draining, and `now` past any
  // fd-exhaustion window) and takes them out otherwise, then records the
  // answer in `listening_`. Run() calls it once per loop pass.
  void SyncListenWatch(std::chrono::steady_clock::time_point now);

  int index_;
  ReactorShared* shared_;
  const RtConfig& config_;  // *shared_->config
  uint64_t migrate_tick_ = 0;  // epochs elapsed on this reactor
  // This reactor's event engine; its epoll instance lives for one Run().
  io::IoBackend io_;
  // sources_[0] is this reactor's own source; entries past it are failover
  // adoptions (released when the owner recovers).
  std::vector<ListenSource> sources_;
  // Intrusive list head of this reactor's open handler connections
  // (ConnState::open_prev/open_next), kNullConn when empty.
  ConnHandle open_head_ = kNullConn;
  uint64_t open_count_ = 0;
  int reserve_fd_ = -1;  // EMFILE rescue reserve (an open /dev/null)
  // This reactor's deadline wheel (Run() scope; built against the config's
  // clock at thread start). Single-threaded by construction: only this
  // reactor arms, cancels, or advances it.
  std::unique_ptr<timer::TimerWheel> wheel_;
  // Per-class deadlines in ns, indexed by DeadlineKind - 1, from the
  // config's *_timeout_ms at Run() start; 0 disables that class. They are
  // re-armed only when the phase KIND changes -- within one phase the
  // deadline is absolute, which is the slowloris defense: trickling bytes
  // does not extend it.
  uint64_t deadline_ns_[4] = {0, 0, 0, 0};
  bool deadlines_enabled_ = false;  // any class above > 0
  uint64_t DeadlineNs(DeadlineKind kind) const {
    return deadline_ns_[static_cast<int>(kind) - 1];
  }
  // Capped exponential accept backoff after fd exhaustion: no accept4
  // before `backoff_until_`.
  std::chrono::steady_clock::time_point backoff_until_{};
  int backoff_ms_ = 0;
  // The listen sources are in the epoll set: this reactor is not draining
  // and no fd-exhaustion window is open. SyncListenWatch keeps it true to
  // both.
  bool listening_ = false;

  // This core's pre-resolved cell of every table metric (see
  // obs::MetricsRegistry::Cell), plus index views over some of them.
  struct HotCells : RtMetricFields<std::atomic<uint64_t>*, obs::AtomicHistogram*> {
    // Distance ledger cells, indexed by LedgerBucket - 1 (0 = same LLC,
    // 1 = cross LLC, 2 = cross node).
    std::atomic<uint64_t>* requests_dist[3] = {nullptr, nullptr, nullptr};
    std::atomic<uint64_t>* steals_dist[3] = {nullptr, nullptr, nullptr};
    // Classified deadline-expiry closes, indexed by DeadlineKind - 1.
    std::atomic<uint64_t>* timeouts[4] = {nullptr, nullptr, nullptr, nullptr};
    // rt_queue_len is labeled by ring, not by reactor: one cell per ring.
    std::vector<std::atomic<uint64_t>*> ring_len;
  };
  HotCells hot_;
  QueueBatch enq_;
  QueueBatch deq_;
  uint32_t batch_served_local_ = 0;
  uint32_t batch_served_remote_ = 0;

  // Hardware-profile hook for this thread; null when hwprof is off. The
  // branch is one predictable test on the phase-transition paths.
  obs::hwprof::ThreadProfile* prof_ = nullptr;
  void Prof(obs::hwprof::Phase phase) {
    if (prof_ != nullptr) {
      prof_->EnterPhase(phase);
    }
  }

  // Records a decision into this core's trace ring, stamped with the core
  // and its current migration epoch.
  void Trace(obs::TraceEvent event) {
    event.core = static_cast<int16_t>(index_);
    event.tick = static_cast<uint32_t>(migrate_tick_);
    shared_->trace->Record(index_, event);
  }
};

}  // namespace rt
}  // namespace affinity

#endif  // AFFINITY_SRC_RT_REACTOR_H_
