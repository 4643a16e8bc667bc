#include "src/rt/reactor.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <chrono>
#include <limits>

#include "src/rt/listener.h"
#include "src/rt/runtime.h"

namespace affinity {
namespace rt {

namespace {

// How many idle conns one failed pool Alloc may evict (EvictIdleConns).
constexpr int kEvictBatch = 4;

uint64_t ToNs(std::chrono::steady_clock::duration d) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

}  // namespace

const char* RtModeName(RtMode mode) {
  switch (mode) {
    case RtMode::kStock:
      return "stock";
    case RtMode::kFine:
      return "fine";
    case RtMode::kAffinity:
      return "affinity";
  }
  return "?";
}

Reactor::Reactor(int index, ReactorShared* shared)
    : index_(index), shared_(shared), config_(*shared->config), io_(index, shared->sys) {}

void ReactorShared::Ring(int core) {
  const uint64_t one = 1;
  // A nonblocking eventfd refuses a write only when its counter would
  // overflow, and a reactor that far behind is awake anyway.
  (void)!write(doorbells[core].value.fd, &one, sizeof(one));
  metrics->Add(ids.doorbell_rings, core);
}

int ReactorShared::NumReactors() const { return config->num_threads; }

void ReactorShared::PublishSteering() const {
  director->Snapshot([this](steer::KernelSteering steering, const steer::SteeringTable& table) {
    metrics->GaugeSet(ids.steer_cbpf, 0, steering == steer::KernelSteering::kAttached ? 1 : 0);
    for (int c = 0; c < table.num_cores(); ++c) {
      metrics->GaugeSet(ids.steer_groups_owned, c, static_cast<uint64_t>(table.OwnedBy(c)));
    }
  });
}

void Reactor::ResolveHotCells() {
  obs::MetricsRegistry* m = shared_->metrics;
  const RtMetricIds& ids = shared_->ids;
#define AFFINITY_RT_RESOLVE(field, name, help) hot_.field = m->Cell(ids.field, index_);
#define AFFINITY_RT_RESOLVE_HIST(field, name, help) hot_.field = m->HistCell(ids.field, index_);
  AFFINITY_RT_COUNTERS(AFFINITY_RT_RESOLVE)
  AFFINITY_RT_GAUGES(AFFINITY_RT_RESOLVE)
  AFFINITY_RT_HISTOGRAMS(AFFINITY_RT_RESOLVE_HIST)
#undef AFFINITY_RT_RESOLVE
#undef AFFINITY_RT_RESOLVE_HIST
  hot_.requests_dist[0] = hot_.requests_same_llc;
  hot_.requests_dist[1] = hot_.requests_cross_llc;
  hot_.requests_dist[2] = hot_.requests_cross_node;
  hot_.steals_dist[0] = hot_.steals_same_llc;
  hot_.steals_dist[1] = hot_.steals_cross_llc;
  hot_.steals_dist[2] = hot_.steals_cross_node;
  hot_.timeouts[0] = hot_.timeouts_handshake;
  hot_.timeouts[1] = hot_.timeouts_idle;
  hot_.timeouts[2] = hot_.timeouts_read;
  hot_.timeouts[3] = hot_.timeouts_write;
  size_t num_queues = shared_->queues.size();
  hot_.ring_len.resize(num_queues);
  for (size_t qi = 0; qi < num_queues; ++qi) {
    hot_.ring_len[qi] = m->Cell(ids.queue_len, static_cast<int>(qi));
  }
  // Batch scratch state: sized once here, reused every batch.
  enq_.q.resize(num_queues);
  enq_.touched.reserve(num_queues);
  deq_.q.resize(num_queues);
  deq_.touched.reserve(num_queues);
}

void Reactor::Run() {
  if (config_.pin_threads) {
    PinCurrentThreadToCpu(index_);
  }
  if (shared_->policy != nullptr) {
    shared_->policy->BindOwner(index_);
  }
  ResolveHotCells();
  // Hardware profiling: open this thread's counter group AFTER pinning so
  // the counters follow the reactor's core. Never fails -- an unavailable
  // PMU yields an inactive profile (phase entries only).
  prof_ = shared_->hwprof != nullptr ? shared_->hwprof->AttachThread(index_) : nullptr;
  if (!io_.Init(nullptr) || !io_.WatchDoorbell(shared_->doorbells[index_].value.fd)) {
    return;
  }

  // This reactor's own source: its shard, or in stock mode the one shared
  // fd (every reactor polls it, level-triggered, so stock accept herds).
  // Accepts land on this core's ring outside stock mode.
  const bool stock = config_.mode == RtMode::kStock;
  ListenSource own;
  own.fd = shared_->listen_fds[stock ? 0 : static_cast<size_t>(index_)];
  own.qi = stock ? 0u : static_cast<uint32_t>(index_);
  sources_.assign(1, own);
  listening_ = false;
  open_head_ = kNullConn;
  open_count_ = 0;
  // The deadline wheel, anchored to the config clock's current reading.
  // Built even when no deadline class is enabled (EvictIdleConns and the
  // close path cancel through it unconditionally); Advance fast-forwards in
  // O(1) while nothing is armed.
  wheel_.reset(new timer::TimerWheel(kTimerTickNs, config_.clock->NowNs()));
  // In DeadlineKind order, kHandshake first.
  const int deadline_ms[] = {config_.handshake_timeout_ms, config_.idle_timeout_ms,
                             config_.read_timeout_ms, config_.write_timeout_ms};
  deadlines_enabled_ = false;
  for (int k = 0; k < 4; ++k) {
    deadline_ns_[k] = deadline_ms[k] > 0 ? static_cast<uint64_t>(deadline_ms[k]) * 1'000'000ull : 0;
    deadlines_enabled_ = deadlines_enabled_ || deadline_ns_[k] != 0;
  }

  // EMFILE rescue reserve: one fd held back so fd exhaustion can still
  // accept-and-RST (keeping the backlog moving) instead of wedging.
  reserve_fd_ = open("/dev/null", O_RDONLY | O_CLOEXEC);
  backoff_ms_ = 0;
  backoff_until_ = std::chrono::steady_clock::time_point{};
  SyncListenWatch(std::chrono::steady_clock::now());

  auto now = std::chrono::steady_clock::now();
  constexpr auto kNever = std::chrono::steady_clock::time_point::max();
  bool migrate = shared_->director != nullptr && config_.migrate_interval_ms > 0;
  auto migrate_period = std::chrono::milliseconds(config_.migrate_interval_ms);
  next_migrate_ = migrate ? now + migrate_period : kNever;

  // The Runtime builds failure domains only for a positive watchdog timeout.
  // A parked reactor beats once per watchdog tick, a quarter of the timeout.
  bool watchdog = shared_->domains != nullptr;
  std::unique_ptr<fault::WatchdogMonitor> monitor;
  auto watchdog_period = std::chrono::milliseconds(std::max(1, config_.watchdog_timeout_ms / 4));
  next_watchdog_ = watchdog ? now + watchdog_period : kNever;
  if (watchdog) {
    monitor.reset(new fault::WatchdogMonitor(
        shared_->domains, index_, std::chrono::milliseconds(config_.watchdog_timeout_ms)));
  }

  // The listen shard is usually the only registered source; adopted shards
  // from dead peers join the set after a failover, so events are dispatched
  // per fd.
  io::IoEvent events[64];
  while (!shared_->stop.load(std::memory_order_acquire)) {
    if (shared_->domains != nullptr) {
      shared_->domains->Beat(index_);
      if (shared_->domains->IsDead(index_)) {
        // A peer failed us over while we were stalled; reverse it.
        SelfRecover();
      }
    }
    Prof(obs::hwprof::Phase::kEpollWait);
    int n = Park(events, 64, NextWaitTimeoutMs(now));
    if (n == fault::SysIface::kKillReactor) {
      // The chaos plan killed this reactor: exit as if the thread died.
      // Deliberately no recovery, no draining -- the watchdog and the
      // surviving peers own everything from here.
      break;
    }
    if (n < 0) {
      break;  // hard engine error (Wait swallows EINTR itself)
    }
    int io_events = 0;
    for (int i = 0; i < n; ++i) {
      const io::IoEvent& ev = events[i];
      if (io::IsDoorbellToken(ev.token)) {
        DrainDoorbell();  // a wakeup, not I/O: what it announced is below
        continue;
      }
      ++io_events;
      if (io::IsConnToken(ev.token)) {
        ConnHandle handle = io::HandleOfToken(ev.token);
        PendingConn* conn = shared_->pool->Get(handle);
        if (conn == nullptr ||
            io::GenOfToken(ev.token) != conn->io_gen.load(std::memory_order_relaxed)) {
          // Stale event: an earlier event of this batch closed the conn (a
          // pool-pressure eviction inside AcceptBatch) and its block moved on.
          continue;
        }
        Prof(obs::hwprof::Phase::kServe);
        DriveConn(handle, ev.events);
        continue;
      }
      // Listen readiness: accept4 will succeed on that source.
      int fd = io::FdOfListenToken(ev.token);
      for (const ListenSource& src : sources_) {
        if (src.fd == fd) {
          Prof(obs::hwprof::Phase::kAccept);
          AcceptBatch(src);
          break;
        }
      }
    }
    if (io_events > 0) {
      hot_.epoll_wakeups->fetch_add(1, std::memory_order_relaxed);
    }
    Prof(obs::hwprof::Phase::kServe);
    int served = ServeBatch();
    if (io_events == 0 && served == 0) {
      // A doorbell or a timer woke us and nothing was ours to serve: one
      // widened pass, the paper's "polling" order. Not after a pass whose
      // accepts were all re-steered away: it would steal them back.
      ServeOne(/*idle=*/true);
      FlushDequeues();
    }
    Prof(obs::hwprof::Phase::kMaintenance);
    if (deadlines_enabled_) {
      wheel_->Advance(config_.clock->NowNs(),
                      [this](timer::TimerEntry* e) { OnDeadlineExpiry(e); });
    }
    now = std::chrono::steady_clock::now();
    // A drain stops accepting (Stop() rings us when it begins) and an
    // fd-exhaustion window pauses accepting (the wait ends with it).
    SyncListenWatch(now);
    if (now >= next_migrate_) {
      // The paper's long-term balancer: every 100 ms each (non-busy) core
      // makes its own migration decision. The wait above ends by the tick.
      MigrationTick();
      next_migrate_ += migrate_period;
    }
    if (now >= next_watchdog_) {
      WatchdogTick(monitor.get());
      next_watchdog_ += watchdog_period;
    }
  }
  Prof(obs::hwprof::Phase::kMaintenance);
  FlushDequeues();
  // Close every connection still mid-conversation -- on the orderly stop
  // path AND the chaos kill path (a killed reactor models a dead process,
  // whose fds the kernel would close; doing it here keeps the pool drained
  // and the conservation ledger exact). Counted as aborted, never served.
  CloseAllOpen();
  if (prof_ != nullptr) {
    shared_->hwprof->DetachThread(index_);
    prof_ = nullptr;
  }
  if (reserve_fd_ >= 0) {
    close(reserve_fd_);
    reserve_fd_ = -1;
  }
  io_.Shutdown();
}

void Reactor::MigrationTick() {
  ++migrate_tick_;
  steer::Migration m;
  if (!shared_->director->MigrateForCore(index_, shared_->policy, &m)) {
    return;
  }
  shared_->metrics->Add(shared_->ids.migrations, index_);
  shared_->PublishSteering();
  Trace({.type = obs::TraceEventType::kMigrate,
         .src = static_cast<int16_t>(m.from_core),
         .dst = static_cast<int16_t>(m.to_core),
         .qlen = static_cast<uint32_t>(m.victim_steals),
         .group = m.group});
}

void Reactor::WatchdogTick(fault::WatchdogMonitor* monitor) {
  ReleaseRecoveredAdoptions();
  std::vector<int> stalled;
  monitor->Scan(std::chrono::steady_clock::now(), &stalled);
  for (int peer : stalled) {
    if (!shared_->domains->IsDead(peer)) {
      TryFailover(peer);
    }
  }
}

void Reactor::TryFailover(int dead) {
  std::lock_guard<std::mutex> lock(shared_->failover_mu);
  if (!shared_->domains->MarkDead(dead)) {
    return;  // another reactor won, or the peer is already dead
  }
  // From here this reactor owns the failover actions; the mutex keeps a
  // concurrently-recovering peer from interleaving with them.
  shared_->metrics->Add(shared_->ids.failovers, index_);
  shared_->metrics->GaugeSet(shared_->ids.reactor_dead, dead, 1);
  if (shared_->policy != nullptr) {
    // Permanently busy: peers steal the dead ring dry, and the migration
    // loop never picks the dead core as a destination. A parked survivor
    // learns of it from its doorbell.
    shared_->policy->SetForcedBusy(dead, true);
    shared_->metrics->GaugeSet(shared_->ids.busy, dead, 1);
    shared_->WakeParked([dead](int core) { return core != dead; });
  }
  if (shared_->director != nullptr) {
    steer::ParkDistances parks = shared_->director->FailOverCore(dead, shared_->policy);
    if (parks.total() > 0) {
      const RtMetricIds& ids = shared_->ids;
      shared_->metrics->Add(ids.failover_group_moves, index_, parks.total());
      shared_->metrics->Add(ids.park_same_llc, index_, parks.same_llc);
      shared_->metrics->Add(ids.park_cross_llc, index_, parks.cross_llc);
      shared_->metrics->Add(ids.park_cross_node, index_, parks.cross_node);
      shared_->PublishSteering();
    }
  }
  // Adopt the dead peer's listen shard: SYNs the kernel already queued
  // there (and, in fallback steering, keeps hashing there) would otherwise
  // strand. Stock mode's shared fd needs no adoption; every reactor polls
  // it already. Accepts land on the dead core's ring by default, where
  // forced-busy stealing drains them. The shard is watched with this
  // reactor's other sources: now if it is listening, else when
  // SyncListenWatch next listens (never, once draining).
  if (config_.mode != RtMode::kStock) {
    ListenSource src;
    src.fd = shared_->listen_fds[static_cast<size_t>(dead)];
    src.qi = static_cast<uint32_t>(dead);
    sources_.push_back(src);
    if (listening_) {
      io_.WatchListen(src.fd);
    }
  }
  Trace({.type = obs::TraceEventType::kReactorDead, .src = static_cast<int16_t>(dead)});
}

void Reactor::SelfRecover() {
  std::lock_guard<std::mutex> lock(shared_->failover_mu);
  if (!shared_->domains->MarkAlive(index_)) {
    return;
  }
  shared_->metrics->Add(shared_->ids.recoveries, index_);
  shared_->metrics->GaugeSet(shared_->ids.reactor_dead, index_, 0);
  if (shared_->policy != nullptr) {
    shared_->policy->SetForcedBusy(index_, false);
    shared_->metrics->GaugeSet(shared_->ids.busy, index_,
                               shared_->policy->IsBusy(index_) ? 1 : 0);
  }
  if (shared_->director != nullptr) {
    size_t returned = shared_->director->RecoverCore(index_);
    if (returned > 0) {
      shared_->metrics->Add(shared_->ids.failover_group_moves, index_,
                            static_cast<uint64_t>(returned));
      shared_->PublishSteering();
    }
  }
  // The adopter still holds our listen fd in its epoll until its next
  // watchdog tick (ReleaseRecoveredAdoptions); the brief double-drain is
  // harmless -- accept4 hands each connection to exactly one caller.
  Trace({.type = obs::TraceEventType::kReactorRecover, .src = static_cast<int16_t>(index_)});
}

void Reactor::ReleaseRecoveredAdoptions() {
  for (size_t i = sources_.size(); i-- > 1;) {
    if (!shared_->domains->IsDead(static_cast<int>(sources_[i].qi))) {
      if (listening_) {
        io_.UnwatchListen(sources_[i].fd);
      }
      sources_.erase(sources_.begin() + static_cast<long>(i));
    }
  }
}

void Reactor::RecordBusyFlip(size_t queue, size_t len_after) {
  bool now_busy = shared_->policy->IsBusy(static_cast<CoreId>(queue));
  const RtMetricIds& ids = shared_->ids;
  shared_->metrics->Add(now_busy ? ids.transitions_to_busy : ids.transitions_to_nonbusy,
                        static_cast<int>(queue));
  shared_->metrics->GaugeSet(ids.busy, static_cast<int>(queue), now_busy ? 1 : 0);
  Trace({.type = now_busy ? obs::TraceEventType::kBusyOn : obs::TraceEventType::kBusyOff,
         .src = static_cast<int16_t>(queue),
         .ewma = shared_->policy->EwmaValue(static_cast<CoreId>(queue)),
         .qlen = static_cast<uint32_t>(len_after)});
}

void Reactor::RstClose(int fd) {
  // SO_LINGER{on, 0}: close() sends a reset instead of an orderly FIN, so
  // the shed client fails fast (ECONNRESET) rather than reading a clean EOF
  // it could mistake for service.
  struct linger lg;
  lg.l_onoff = 1;
  lg.l_linger = 0;
  setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  shared_->sys->Close(index_, fd);
}

bool Reactor::ShedOrDrop(int fd, size_t qi) {
  if (config_.overload == OverloadPolicy::kAcceptThenRst) {
    RstClose(fd);
    Trace({.type = obs::TraceEventType::kAdmissionShed,
           .src = static_cast<int16_t>(qi),
           .qlen = static_cast<uint32_t>(shared_->queues[qi]->size())});
    return true;
  }
  // kLeaveInBacklog: orderly close, counted as an overflow drop -- the
  // stage-1 backlog gate does the actual pushing back.
  shared_->sys->Close(index_, fd);
  Trace({.type = obs::TraceEventType::kOverflowDrop,
         .src = static_cast<int16_t>(qi),
         .qlen = static_cast<uint32_t>(shared_->queues[qi]->capacity())});
  return false;
}

void Reactor::FdExhaustionRescue(int listen_fd) {
  hot_.accept_emfile->fetch_add(1, std::memory_order_relaxed);
  if (reserve_fd_ >= 0) {
    // Burn the reserve to accept exactly one connection and RST it: the
    // client gets a fast failure instead of hanging in a backlog no fd can
    // drain, and the backlog keeps moving.
    close(reserve_fd_);
    reserve_fd_ = -1;
    int fd = shared_->sys->Accept4(index_, listen_fd, nullptr, nullptr,
                                   SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) {
      RstClose(fd);
      hot_.accepted->fetch_add(1, std::memory_order_relaxed);
      hot_.admission_shed->fetch_add(1, std::memory_order_relaxed);
      Trace({.type = obs::TraceEventType::kAdmissionShed, .src = static_cast<int16_t>(index_)});
    }
    reserve_fd_ = open("/dev/null", O_RDONLY | O_CLOEXEC);
  }
  // Capped exponential backoff: stop hammering accept4 while the process is
  // out of fds; the kernel backlog holds the line meanwhile. The listen fds
  // are level-triggered, so they leave the epoll set for the window: else
  // every epoll_wait would return at once and spin the loop until it ends.
  backoff_ms_ = backoff_ms_ == 0 ? kBackoffFirstMs : std::min(backoff_ms_ * 2, kBackoffCapMs);
  auto now = std::chrono::steady_clock::now();
  backoff_until_ = now + std::chrono::milliseconds(backoff_ms_);
  hot_.accept_backoff->fetch_add(1, std::memory_order_relaxed);
  SyncListenWatch(now);
}

void Reactor::SyncListenWatch(std::chrono::steady_clock::time_point now) {
  const bool listen = !shared_->draining.load(std::memory_order_acquire) && now >= backoff_until_;
  if (listen == listening_) {
    return;
  }
  for (const ListenSource& src : sources_) {
    if (listen) {
      io_.WatchListen(src.fd);
    } else {
      io_.UnwatchListen(src.fd);
    }
  }
  listening_ = listen;
}

void Reactor::AcceptBatch(const ListenSource& src) {
  const size_t default_qi = src.qi;
  if (!listening_) {
    // An earlier event of this epoll batch opened an fd-exhaustion backoff
    // window: leave the backlog queued.
    return;
  }
  // Stage 0: how many connections wait. A TCP listener reports its accept
  // queue's depth in tcpi_unacked (what `ss -lt` shows as Recv-Q), so the
  // drain takes exactly that many and never pays for an accept4 that
  // returns EAGAIN -- on Linux the dearest call of a drain, because accept
  // sets up the new socket's file before it looks at the queue. A failed
  // query drains until EAGAIN.
  int limit = kReactorBatch;
  tcp_info info{};
  socklen_t info_len = sizeof(info);
  if (getsockopt(src.fd, IPPROTO_TCP, TCP_INFO, &info, &info_len) == 0) {
    if (info.tcpi_unacked == 0) {
      return;  // a peer polling the same fd took them (stock mode, failover)
    }
    limit = static_cast<int>(std::min<uint32_t>(info.tcpi_unacked, kReactorBatch));
  }
  // Only a steering drain reads peer addresses: the source port is the
  // flow-group key.
  const bool steer = shared_->director != nullptr;

  // Stage 1: drain the kernel queue into a stack array -- no bookkeeping
  // between accept4 calls, so the kernel side is drained as fast as the
  // syscall allows. EAGAIN still ends it early: reactors that poll one
  // shared fd (stock mode) race for the same connections.
  Accepted batch[kReactorBatch];
  int n = 0;
  uint32_t owner_accepts = 0;
  uint32_t cross_accepts = 0;
  uint32_t eintr = 0;
  uint32_t aborted = 0;
  uint32_t eproto = 0;
  int soft_skips = 0;
  bool fd_exhausted = false;
  while (n < limit) {
    if (config_.overload == OverloadPolicy::kLeaveInBacklog) {
      // Admission gate: a full local ring stops the drain so the burst
      // queues in the kernel backlog instead of being accepted into a drop.
      const AcceptRing& ring = *shared_->queues[default_qi];
      if (ring.size() >= ring.capacity()) {
        break;
      }
    }
    sockaddr_storage peer;
    socklen_t peer_len = sizeof(peer);
    int fd = shared_->sys->Accept4(index_, src.fd,
                                   steer ? reinterpret_cast<sockaddr*>(&peer) : nullptr,
                                   steer ? &peer_len : nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      // Soft errors are skip-and-continue with a per-class counter: the
      // connection behind an ECONNABORTED/EPROTO is gone, and EINTR aborted
      // nothing -- neither says the listen socket is bad. The skip budget
      // bounds an injected errno burst to one batch's worth of retries.
      if (errno == EINTR) {
        ++eintr;
        if (++soft_skips <= kReactorBatch) continue;
      } else if (errno == ECONNABORTED) {
        ++aborted;
        if (++soft_skips <= kReactorBatch) continue;
      } else if (errno == EPROTO) {
        ++eproto;
        if (++soft_skips <= kReactorBatch) continue;
      } else if (errno == EMFILE || errno == ENFILE) {
        fd_exhausted = true;
      }
      break;  // EAGAIN (drained), or a hard error: retry next wakeup
    }
    size_t qi = default_qi;
    if (steer && peer.ss_family == AF_INET) {
      // Flow-group steering: the connection belongs to whichever core owns
      // its source port's group. With cBPF attached the kernel already
      // delivered the SYN to the owner's shard, so owner == self except
      // for connections in flight across a migration; in fallback mode
      // this re-steer IS the steering (one cross-core ring push).
      CoreId owner = shared_->director->OwnerOfPort(
          ntohs(reinterpret_cast<const sockaddr_in*>(&peer)->sin_port));
      if (owner >= 0 && owner < config_.num_threads) {
        qi = static_cast<size_t>(owner);
      }
      if (qi == static_cast<size_t>(index_)) {
        ++owner_accepts;
      } else {
        ++cross_accepts;
      }
    }
    batch[n].fd = fd;
    batch[n].qi = static_cast<uint32_t>(qi);
    ++n;
  }
  if (eintr > 0) {
    hot_.accept_eintr->fetch_add(eintr, std::memory_order_relaxed);
  }
  if (aborted > 0) {
    hot_.accept_econnaborted->fetch_add(aborted, std::memory_order_relaxed);
  }
  if (eproto > 0) {
    hot_.accept_eproto->fetch_add(eproto, std::memory_order_relaxed);
  }
  if (n > 0) {
    backoff_ms_ = 0;  // fd pressure is over: reset the exponential window
  }
  if (fd_exhausted) {
    FdExhaustionRescue(src.fd);
  }
  if (n == 0) {
    return;
  }
  AdmitBatch(batch, n);
  if (owner_accepts > 0) {
    hot_.steer_owner_accepts->fetch_add(owner_accepts, std::memory_order_relaxed);
  }
  if (cross_accepts > 0) {
    hot_.steer_cross_accepts->fetch_add(cross_accepts, std::memory_order_relaxed);
  }
}

void Reactor::AdmitBatch(const Accepted* batch, int n) {
  // Stage 2: pool blocks + ring pushes, aggregating per-ring counts.
  // Connections that cannot be queued go through the admission policy
  // (ShedOrDrop).
  uint32_t overflow_drops = 0;
  uint32_t admission_sheds = 0;
  uint32_t pool_drops = 0;
  for (int i = 0; i < n; ++i) {
    const Accepted& a = batch[i];
    size_t qi = a.qi;
    ConnHandle handle = shared_->pool->Alloc(index_);
    if (handle == kNullConn && EvictIdleConns() > 0) {
      // Pool pressure: the oldest idle conns (slowloris holders, by
      // definition of idle) were just reaped, so the retry usually
      // succeeds -- new work displaces dead weight instead of being shed.
      handle = shared_->pool->Alloc(index_);
    }
    if (handle == kNullConn) {
      // Arena exhausted (sized to cover every ring plus a batch, so this
      // means the rings are full anyway): same disposition as a ring
      // overflow, plus its own counter.
      ++pool_drops;
      if (ShedOrDrop(a.fd, qi)) {
        ++admission_sheds;
      } else {
        ++overflow_drops;
      }
      continue;
    }
    PendingConn* conn = shared_->pool->Get(handle);
    conn->fd = a.fd;
    conn->accepted_at = std::chrono::steady_clock::now();
    conn->svc.Reset();
    size_t len_after = 0;
    if (!shared_->queues[qi]->Push(handle, &len_after)) {
      shared_->pool->Free(index_, handle);  // we just allocated it: local free
      if (ShedOrDrop(a.fd, qi)) {
        ++admission_sheds;
      } else {
        ++overflow_drops;
      }
      continue;
    }
    enq_.NoteMove(qi, len_after);
  }

  // Stage 3: one flush per touched ring -- queue-length gauge and the
  // policy's EWMA/watermark update see the post-batch state once.
  hot_.accepted->fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
  if (overflow_drops > 0) {
    hot_.overflow_drops->fetch_add(overflow_drops, std::memory_order_relaxed);
  }
  if (admission_sheds > 0) {
    hot_.admission_shed->fetch_add(admission_sheds, std::memory_order_relaxed);
  }
  if (pool_drops > 0) {
    hot_.pool_exhausted->fetch_add(pool_drops, std::memory_order_relaxed);
  }
  BalancePolicy* policy = shared_->policy;
  const bool stock = config_.mode == RtMode::kStock;
  bool cross_push = false;
  CoreId poll_near = kNoCore;
  for (uint32_t qi : enq_.touched) {
    const QueueBatch::PerQueue& entry = enq_.q[qi];
    hot_.ring_len[qi]->store(entry.last_len, std::memory_order_relaxed);
    const CoreId q = static_cast<CoreId>(qi);
    const bool flipped = policy != nullptr && policy->OnEnqueueBatch(q, entry.moved, entry.last_len);
    if (flipped) {
      RecordBusyFlip(qi, entry.last_len);
    }
    cross_push = cross_push || (!stock && q != index_);
    // The polling wakeup's triggers on this core's side: the ring just
    // turned busy, or this batch queued more connections on the own ring
    // than one proportional share (steal_ratio), so the last of them wait
    // behind a share's worth of local work with no waiter. Only what this
    // batch queued counts: a peer's cross-push announced itself.
    if (policy != nullptr && poll_near == kNoCore &&
        ((flipped && policy->IsBusy(q)) ||
         (q == index_ && entry.moved > static_cast<uint32_t>(policy->steal_ratio())))) {
      poll_near = q;
    }
  }

  // Stage 4: wake whoever should take what this batch queued. A ring pushed
  // for another core rings that owner if it is parked (a fallback re-steer,
  // or a connection in flight across a migration), so the connection stays
  // on its flow group's core.
  if (cross_push || poll_near != kNoCore) {
    shared_->WakeParked([this, cross_push](int core) {
      return cross_push && core != index_ && enq_.q[static_cast<size_t>(core)].moved > 0;
    });
    // An owner that is awake with connections queued ahead of this push has
    // no waiter for it either. The flag reads below follow WakeParked's
    // fence.
    for (uint32_t qi : enq_.touched) {
      const QueueBatch::PerQueue& entry = enq_.q[qi];
      if (policy != nullptr && poll_near == kNoCore && static_cast<int>(qi) != index_ &&
          entry.last_len > entry.moved && !shared_->Parked(static_cast<int>(qi))) {
        poll_near = static_cast<CoreId>(qi);
      }
    }
    // The polling wakeup rings one parked, non-busy peer, nearest first --
    // the simulator's choice (ListenSocket::WakeAfterEnqueue).
    if (poll_near != kNoCore) {
      CoreId peer =
          policy->PickPollerToWake(poll_near, [this](CoreId c) { return shared_->Parked(c); });
      if (peer != kNoCore) {
        shared_->Ring(peer);
      }
    }
  }
  for (uint32_t qi : enq_.touched) {
    enq_.q[qi].moved = 0;
  }
  enq_.touched.clear();
}

int Reactor::ServeBatch() {
  int served = 0;
  while (served < kReactorBatch && ServeOne(/*idle=*/false)) {
    ++served;
  }
  FlushDequeues();
  return served;
}

bool Reactor::PopFrom(size_t qi, ConnHandle* out) {
  size_t len_after = 0;
  if (!shared_->queues[qi]->TryPop(out, &len_after)) {
    return false;
  }
  deq_.NoteMove(qi, len_after);
  return true;
}

void Reactor::FlushDequeues() {
  for (uint32_t qi : deq_.touched) {
    QueueBatch::PerQueue& entry = deq_.q[qi];
    hot_.ring_len[qi]->store(entry.last_len, std::memory_order_relaxed);
    if (shared_->policy != nullptr &&
        shared_->policy->OnDequeueBatch(static_cast<CoreId>(qi), entry.moved, entry.last_len)) {
      RecordBusyFlip(qi, entry.last_len);
    }
    entry.moved = 0;
  }
  deq_.touched.clear();
  if (batch_served_local_ > 0) {
    hot_.served_local->fetch_add(batch_served_local_, std::memory_order_relaxed);
    batch_served_local_ = 0;
  }
  if (batch_served_remote_ > 0) {
    hot_.served_remote->fetch_add(batch_served_remote_, std::memory_order_relaxed);
    batch_served_remote_ = 0;
  }
}

void Reactor::RecordSteal(CoreId victim, size_t victim_len_after) {
  hot_.steals->fetch_add(1, std::memory_order_relaxed);
  // Distance ledger: how far this steal reached. LedgerBucket is never 0
  // here (a core does not steal from itself).
  int bucket = topo::LedgerBucket(shared_->topo->Between(index_, victim));
  hot_.steals_dist[bucket - 1]->fetch_add(1, std::memory_order_relaxed);
  Trace({.type = obs::TraceEventType::kSteal,
         .src = static_cast<int16_t>(victim),
         .dst = static_cast<int16_t>(index_),
         .qlen = static_cast<uint32_t>(victim_len_after)});
}

bool Reactor::ServeOne(bool idle) {
  ConnHandle conn = kNullConn;

  switch (config_.mode) {
    case RtMode::kStock:
    case RtMode::kFine: {
      // Stock has one shared ring. Fine goes round-robin over all rings
      // through the shared cursor; every core serves every ring, so there is
      // no connection affinity.
      const size_t n = shared_->queues.size();
      const size_t start =
          n == 1 ? 0
                 : static_cast<size_t>(shared_->rr_cursor.fetch_add(1, std::memory_order_relaxed)) % n;
      for (size_t i = 0; i < n; ++i) {
        const size_t qi = (start + i) % n;
        if (CanServeFrom(qi) && PopFrom(qi, &conn)) {
          Serve(conn, /*local=*/n == 1 || qi == static_cast<size_t>(index_));
          return true;
        }
      }
      return false;
    }

    case RtMode::kAffinity: {
      // The simulator's ListenSocket::Accept order, by the same code
      // (ServeAffinityOrder) and the same BalancePolicy. Dequeue reporting
      // is deferred to the end of the batch, so decisions within one batch
      // see busy bits at most one batch stale.
      CoreId from = ServeAffinityOrder(
          shared_->policy, index_, /*stealing=*/true, idle,
          shared_->queues[static_cast<size_t>(index_)]->size() == 0,
          [&](CoreId q) { return PopFrom(static_cast<size_t>(q), &conn); },
          [this](CoreId q) { return shared_->queues[static_cast<size_t>(q)]->size() > 0; });
      if (from == kNoCore) {
        return false;
      }
      if (from == index_) {
        Serve(conn, /*local=*/true);
        return true;
      }
      Prof(obs::hwprof::Phase::kSteal);
      RecordSteal(from, shared_->queues[static_cast<size_t>(from)]->size());
      Serve(conn, /*local=*/false);
      Prof(obs::hwprof::Phase::kServe);
      return true;
    }
  }
  return false;
}

void Reactor::Serve(ConnHandle handle, bool local) {
  PendingConn* conn = shared_->pool->Get(handle);
  hot_.queue_wait_ns->Add(ToNs(std::chrono::steady_clock::now() - conn->accepted_at));
  // The locality ledger's moment of truth: the first serving core is now
  // known. Core locality is a different fact from ring locality (`local`):
  // stock mode's one shared ring makes every pop ring-local, and steering
  // can queue a conn on a third core's ring -- the ledger compares CORES.
  // The accepting core is the block's owner: AdmitBatch allocates from the
  // accepting core's pool.
  CoreId accept_core = shared_->pool->OwnerOf(handle);
  bool core_local = accept_core == index_;
  // Distance ledger: how far this request travelled from its accepting
  // core (0 local, then LedgerBucket's same-LLC / cross-LLC / cross-node).
  int dist_bucket =
      core_local ? 0 : topo::LedgerBucket(shared_->topo->Between(accept_core, index_));
  // The connection enters service on THIS reactor and stays here until a
  // close verdict -- the locality decision was made at the pop, so it is
  // recorded now and accounted per round and at close.
  svc::ConnState& st = conn->svc;
  st.remote_served = !local;
  st.accept_dist = static_cast<uint8_t>(dist_bucket);
  // Open from here on: the client can see OnAccept's reply before the call
  // returns, and a graceful drain ends once rt_conn_open and the rings read
  // empty.
  ++open_count_;
  hot_.open_conns->store(open_count_, std::memory_order_relaxed);
  svc::ConnRef ref{&st, conn->fd, index_, shared_->sys};
  svc::Verdict verdict = shared_->handler->OnAccept(ref);
  NoteRounds(conn, /*prev_rounds=*/0);
  if (verdict == svc::Verdict::kClose || verdict == svc::Verdict::kRstClose) {
    // Over in one call (every accept-workload connection): no open-list
    // entry, no timer -- only the shared release,
    // whose pool free is the paper's remote deallocation when this
    // connection was stolen or re-steered here.
    --open_count_;
    hot_.open_conns->store(open_count_, std::memory_order_relaxed);
    ReleaseConn(handle, conn, verdict == svc::Verdict::kRstClose, /*unserved=*/nullptr);
    return;
  }
  OpenListAdd(handle, conn);
  Finish(handle, conn, verdict);
}

void Reactor::DriveConn(ConnHandle handle, uint32_t ev_events) {
  PendingConn* conn = shared_->pool->Get(handle);
  svc::ConnState& st = conn->svc;
  if ((ev_events & (EPOLLERR | EPOLLHUP)) != 0 && (ev_events & (EPOLLIN | EPOLLOUT)) == 0) {
    // Pure error readiness (peer RST with nothing readable): no callback
    // could make progress, so close directly. OnClose still runs.
    CloseConn(handle, conn, /*rst=*/false);
    return;
  }
  svc::ConnRef ref{&st, conn->fd, index_, shared_->sys};
  uint32_t prev = st.rounds_done;
  svc::Verdict verdict = st.phase == svc::ConnPhase::kWriting
                             ? shared_->handler->OnWritable(ref)
                             : shared_->handler->OnReadable(ref);
  NoteRounds(conn, prev);
  Finish(handle, conn, verdict);
}

void Reactor::NoteRounds(PendingConn* conn, uint32_t prev_rounds) {
  const uint32_t delta = conn->svc.rounds_done - prev_rounds;
  assert(delta <= 1 && "a handler call completes at most one round");
  if (delta == 0) {
    return;
  }
  // A completed round retires the current phase deadline: the next verdict
  // arms a fresh one for the next request. Progress WITHIN a phase (partial
  // request bytes, partial response flushes) deliberately does not reach
  // here -- that is the slowloris defense.
  if (deadlines_enabled_) {
    wheel_->Cancel(&conn->phase_timer);
  }
  hot_.requests->fetch_add(1, std::memory_order_relaxed);
  // Ledger: the round ran on the core recorded at Serve() time. A held
  // connection never changes reactors mid-conversation, so the bucket set
  // there is exact for every round.
  if (conn->svc.accept_dist == 0) {
    hot_.requests_local_core->fetch_add(1, std::memory_order_relaxed);
  } else {
    hot_.requests_remote_core->fetch_add(1, std::memory_order_relaxed);
    hot_.requests_dist[conn->svc.accept_dist - 1]->fetch_add(1, std::memory_order_relaxed);
  }
  hot_.request_latency_ns->Add(conn->svc.last_request_ns);
}

void Reactor::Finish(ConnHandle handle, PendingConn* conn, svc::Verdict verdict) {
  switch (verdict) {
    case svc::Verdict::kWantRead:
      if (Arm(handle, conn, EPOLLIN) && deadlines_enabled_) {
        ArmPhaseDeadline(handle, conn, /*want_read=*/true);
      }
      return;
    case svc::Verdict::kWantWrite:
      if (Arm(handle, conn, EPOLLOUT) && deadlines_enabled_) {
        ArmPhaseDeadline(handle, conn, /*want_read=*/false);
      }
      return;
    case svc::Verdict::kClose:
      CloseConn(handle, conn, /*rst=*/false);
      return;
    case svc::Verdict::kRstClose:
      CloseConn(handle, conn, /*rst=*/true);
      return;
  }
}

bool Reactor::Arm(ConnHandle handle, PendingConn* conn, uint32_t want) {
  svc::ConnState& st = conn->svc;
  if (st.armed == want) {
    return true;  // level-triggered epoll: the existing registration keeps
                  // firing
  }
  uint64_t token = io::MakeConnToken(handle, conn->io_gen.load(std::memory_order_relaxed));
  if (!io_.ArmConn(conn->fd, want, token, st.armed == 0)) {
    // A connection the engine cannot watch would be held forever: fail it
    // fast.
    CloseConn(handle, conn, /*rst=*/true);
    return false;
  }
  st.armed = want;
  return true;
}

void Reactor::ArmPhaseDeadline(ConnHandle handle, PendingConn* conn, bool want_read) {
  const svc::ConnState& st = conn->svc;
  DeadlineKind kind;
  if (!want_read) {
    kind = DeadlineKind::kWrite;
  } else if (st.req_len > 0) {
    kind = DeadlineKind::kRead;
  } else if (st.rounds_done == 0) {
    kind = DeadlineKind::kHandshake;
  } else {
    kind = DeadlineKind::kIdle;
  }
  uint64_t timeout_ns = DeadlineNs(kind);
  timer::TimerEntry* e = &conn->phase_timer;
  if (timeout_ns == 0) {
    wheel_->Cancel(e);  // this class is disabled; drop any stale deadline
    return;
  }
  if (e->armed && e->kind == static_cast<uint8_t>(kind)) {
    // Same phase as last time: the absolute deadline stands. This is the
    // slowloris defense -- a client trickling one byte per wakeup changes
    // nothing here, only a phase TRANSITION (or a completed round, which
    // cancels in NoteRounds) buys a fresh deadline.
    return;
  }
  wheel_->Arm(e, config_.clock->NowNs() + timeout_ns, static_cast<uint8_t>(kind),
              static_cast<uint64_t>(handle));
}

void Reactor::OnDeadlineExpiry(timer::TimerEntry* e) {
  // Every close path cancels the conn's entry before the block can recycle,
  // so a fired entry always refers to a conn this reactor still holds open.
  ConnHandle handle = static_cast<ConnHandle>(e->data);
  PendingConn* conn = shared_->pool->Get(handle);
  CloseConn(handle, conn, /*rst=*/true, hot_.timeouts[e->kind - 1]);
}

int Reactor::NextWaitTimeoutMs(std::chrono::steady_clock::time_point now) {
  constexpr int64_t kNone = -1;
  int64_t wait_ns = kNone;
  // The steady-clock events; a tick whose subsystem is off is never due.
  auto nearest = std::min(next_migrate_, next_watchdog_);
  if (backoff_until_ > now) {
    nearest = std::min(nearest, backoff_until_);
  }
  if (nearest != std::chrono::steady_clock::time_point::max()) {
    wait_ns = std::max<int64_t>(
        0, std::chrono::duration_cast<std::chrono::nanoseconds>(nearest - now).count());
  }
  // The wheel runs on the config clock, which a test may script.
  if (deadlines_enabled_) {
    const uint64_t fire = wheel_->NextFireNs();
    if (fire != timer::TimerWheel::kNever) {
      const uint64_t clock_now = config_.clock->NowNs();
      const int64_t until = fire <= clock_now ? 0 : static_cast<int64_t>(fire - clock_now);
      wait_ns = wait_ns == kNone ? until : std::min(wait_ns, until);
    }
  }
  if (wait_ns == kNone) {
    return -1;
  }
  // Rounded up: a wait that ends early only costs another wait.
  const int64_t ms = (wait_ns + 999'999) / 1'000'000;
  return static_cast<int>(std::min<int64_t>(ms, std::numeric_limits<int>::max()));
}

int Reactor::Park(io::IoEvent* events, int max_events, int timeout_ms) {
  std::atomic<bool>& parked = shared_->doorbells[index_].value.parked;
  if (timeout_ms != 0) {
    // The sleeper's side of parking. Raise the flag, fence, then look once
    // more for work a waker may have published without ringing. A waker
    // publishes its work (a ring push, a busy bit, a flag store), fences,
    // then reads the flag. The two seq_cst fences are ordered one way or
    // the other, so either WorkPending below sees the work, or the waker
    // sees the flag and writes the eventfd, which stays readable until
    // DrainDoorbell and so ends the wait below at once. No wakeup is lost.
    // The fence is needed here too: the ring and busy-bit reads are not
    // seq_cst operations.
    parked.store(true, std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (WorkPending()) {
      timeout_ms = 0;
    }
  }
  int n = io_.Wait(events, max_events, timeout_ms);
  // A waker that still reads the flag set rings once more: harmless.
  parked.store(false, std::memory_order_relaxed);
  return n;
}

bool Reactor::WorkPending() const {
  if (shared_->stop.load(std::memory_order_relaxed) ||
      (listening_ && shared_->draining.load(std::memory_order_relaxed))) {
    return true;
  }
  const std::vector<std::unique_ptr<AcceptRing>>& queues = shared_->queues;
  for (size_t qi = 0; qi < queues.size(); ++qi) {
    if (CanServeFrom(qi) && queues[qi]->size() > 0) {
      return true;
    }
  }
  return false;
}

bool Reactor::CanServeFrom(size_t qi) const {
  if (config_.mode != RtMode::kAffinity) {
    return true;  // stock's one ring, or any ring in fine mode
  }
  return shared_->policy->MayServeFrom(index_, static_cast<CoreId>(qi));
}

void Reactor::DrainDoorbell() {
  uint64_t rings = 0;
  (void)!read(shared_->doorbells[index_].value.fd, &rings, sizeof(rings));
}

int Reactor::EvictIdleConns() {
  if (open_head_ == kNullConn) {
    return 0;
  }
  // open_head_ is newest-first, so walk to the tail and reap backwards:
  // eviction takes the OLDEST idle conns. Pass 0 restricts itself to blocks
  // this core owns (a remote-owned free lands on another core's freelist
  // and would not refill the Alloc that just failed); pass 1 runs only if
  // pass 0 freed nothing, relieving global pressure instead.
  ConnHandle tail = open_head_;
  for (;;) {
    ConnHandle next = shared_->pool->Get(tail)->svc.open_next;
    if (next == kNullConn) {
      break;
    }
    tail = next;
  }
  int evicted = 0;
  for (int pass = 0; pass < 2 && evicted == 0; ++pass) {
    ConnHandle h = tail;
    while (h != kNullConn && evicted < kEvictBatch) {
      PendingConn* conn = shared_->pool->Get(h);
      ConnHandle prev = conn->svc.open_prev;
      if (conn->svc.IdleBetweenRequests() &&
          (pass == 1 || shared_->pool->OwnerOf(h) == index_)) {
        // Counted as an idle timeout (the conservation bucket an
        // early-reaped idle conn belongs to) plus the eviction counter.
        CloseConn(h, conn, /*rst=*/true, hot_.timeouts_idle);
        ++evicted;
      }
      h = prev;
    }
  }
  if (evicted > 0) {
    hot_.pool_evictions->fetch_add(static_cast<uint64_t>(evicted),
                                   std::memory_order_relaxed);
  }
  return evicted;
}

void Reactor::CloseConn(ConnHandle handle, PendingConn* conn, bool rst,
                        std::atomic<uint64_t>* unserved) {
  // Retire the deadline entry BEFORE the block can recycle: a dangling
  // armed entry would leave the wheel pointing into a block another core
  // now owns.
  wheel_->Cancel(&conn->phase_timer);
  OpenListRemove(handle, conn);
  --open_count_;
  hot_.open_conns->store(open_count_, std::memory_order_relaxed);
  ReleaseConn(handle, conn, rst, unserved);
}

void Reactor::ReleaseConn(ConnHandle handle, PendingConn* conn, bool rst,
                          std::atomic<uint64_t>* unserved) {
  svc::ConnState& st = conn->svc;
  svc::ConnRef ref{&st, conn->fd, index_, shared_->sys};
  shared_->handler->OnClose(ref);
  if (rst) {
    RstClose(conn->fd);
  } else {
    shared_->sys->Close(index_, conn->fd);
  }
  if (unserved != nullptr) {
    // A deadline expiry, pool-pressure eviction or stop-time abort is not
    // service: it lands in its own bucket -- the `timed_out` or
    // `aborted_at_stop` term of the conservation equation -- never in
    // served.
    unserved->fetch_add(1, std::memory_order_relaxed);
  } else {
    // Served accounting happens at close, under the locality recorded when
    // the connection was popped -- held-open connections are in
    // rt_conn_open until this moment, which is what keeps `accepted ==
    // served + open + drops` exact at any instant.
    if (st.remote_served) {
      ++batch_served_remote_;
    } else {
      ++batch_served_local_;
    }
    if (shared_->draining.load(std::memory_order_relaxed)) {
      // A conversation that finished normally inside the drain window: the
      // graceful half of Stop(drain_deadline_ms)'s ledger.
      hot_.drained_gracefully->fetch_add(1, std::memory_order_relaxed);
    }
  }
  FreeConn(handle);
}

void Reactor::FreeConn(ConnHandle handle) {
  // Retire this block's reuse generation BEFORE the block can recycle: any
  // event token minted for the old occupant is now recognizably stale.
  shared_->pool->Get(handle)->io_gen.fetch_add(1, std::memory_order_relaxed);
  CoreId owner = shared_->pool->OwnerOf(handle);
  shared_->pool->Free(index_, handle);
  if (owner != index_) {
    // The paper's remote deallocation. Serve() ran on this core too, so
    // this is also the one count of connections served off their acceptor.
    hot_.conn_remote_frees->fetch_add(1, std::memory_order_relaxed);
  }
}

void Reactor::OpenListAdd(ConnHandle handle, PendingConn* conn) {
  conn->svc.open_prev = kNullConn;
  conn->svc.open_next = open_head_;
  if (open_head_ != kNullConn) {
    shared_->pool->Get(open_head_)->svc.open_prev = handle;
  }
  open_head_ = handle;
}

void Reactor::OpenListRemove(ConnHandle handle, PendingConn* conn) {
  uint32_t prev = conn->svc.open_prev;
  uint32_t next = conn->svc.open_next;
  if (prev != kNullConn) {
    shared_->pool->Get(prev)->svc.open_next = next;
  } else {
    open_head_ = next;
  }
  if (next != kNullConn) {
    shared_->pool->Get(next)->svc.open_prev = prev;
  }
  conn->svc.open_prev = kNullConn;
  conn->svc.open_next = kNullConn;
}

void Reactor::CloseAllOpen() {
  while (open_head_ != kNullConn) {
    ConnHandle handle = open_head_;
    CloseConn(handle, shared_->pool->Get(handle), /*rst=*/false, hot_.aborted_at_stop);
  }
}

}  // namespace rt
}  // namespace affinity
