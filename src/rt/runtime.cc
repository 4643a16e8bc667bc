#include "src/rt/runtime.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>

#include "src/rt/listener.h"

namespace affinity {
namespace rt {

namespace {

// Autogenerated abstract-namespace socket name for a UNIX listener: unique
// per process AND per Start() (the counter), so restarts and parallel test
// binaries never collide, and nothing needs unlinking.
std::string AutoUnixPath(int listener_id) {
  static std::atomic<uint64_t> counter{0};
  char buf[64];
  std::snprintf(buf, sizeof(buf), "@aff-rt-%d-%llu-%d", static_cast<int>(getpid()),
                static_cast<unsigned long long>(counter.fetch_add(1, std::memory_order_relaxed)),
                listener_id);
  return buf;
}

}  // namespace

bool ValidateRtConfig(const RtConfig& config, std::string* error) {
  if (config.topo_source != nullptr && config.topo_mode == topo::TopoMode::kFlat) {
    if (error != nullptr) {
      *error = "topo_source set but topo_mode=flat discards it; a scripted "
               "topology on a run that ignores topology was a misread test -- "
               "use topo_mode=auto or drop the source";
    }
    return false;
  }
  // Lifecycle-deadline knobs: contradictory combinations configure a run
  // that cannot mean what it says, so they fail here, not at 3am.
  if (config.timer_resolution_ns == 0) {
    if (error != nullptr) {
      *error = "timer_resolution_ns must be positive (it is the wheel's tick width)";
    }
    return false;
  }
  const struct {
    int ms;
    const char* name;
  } phase_deadlines[] = {
      {config.handshake_timeout_ms, "handshake_timeout_ms"},
      {config.idle_timeout_ms, "idle_timeout_ms"},
      {config.read_timeout_ms, "read_timeout_ms"},
      {config.write_timeout_ms, "write_timeout_ms"},
  };
  int64_t smallest_ms = 0;
  bool any_deadline = config.max_lifetime_ms > 0;
  if (any_deadline) {
    smallest_ms = config.max_lifetime_ms;
  }
  for (const auto& p : phase_deadlines) {
    if (p.ms <= 0) {
      continue;
    }
    if (config.max_lifetime_ms > 0 && p.ms >= config.max_lifetime_ms) {
      if (error != nullptr) {
        *error = std::string(p.name) + " >= max_lifetime_ms: the lifetime cap always "
                 "fires first, so the phase deadline can never trigger -- lower the "
                 "phase deadline or raise max_lifetime_ms";
      }
      return false;
    }
    if (!any_deadline || p.ms < smallest_ms) {
      smallest_ms = p.ms;
    }
    any_deadline = true;
  }
  if (any_deadline &&
      config.timer_resolution_ns > static_cast<uint64_t>(smallest_ms) * 1'000'000ull) {
    if (error != nullptr) {
      *error = "timer_resolution_ns is coarser than the smallest enabled deadline: "
               "every such deadline would round up to one whole tick and fire late "
               "(or never meaningfully) -- use a finer resolution or longer deadlines";
    }
    return false;
  }
  if (config.drain_deadline_ms > 0 && !any_deadline) {
    if (error != nullptr) {
      *error = "drain_deadline_ms set but every lifecycle timeout is disabled: an "
               "idle held connection can never finish, so the drain would always "
               "burn the full deadline and then mass-abort -- enable a timeout "
               "(idle_timeout_ms at least) or drop the drain deadline";
    }
    return false;
  }
  return true;
}

Runtime::Runtime(const RtConfig& config) : config_(config) {
  if (config_.num_threads < 1) {
    config_.num_threads = 1;
  }
  if (config_.num_threads > kMaxCores) {
    config_.num_threads = kMaxCores;  // pool handles encode the core id
  }
  if (config_.accept_batch < 1) {
    config_.accept_batch = 1;
  }
  // Same split as ListenSocket: the backlog is divided evenly across the
  // per-core queues, and that share is the busy-tracking reference length.
  max_local_len_ = std::max(1, config_.backlog / config_.num_threads);

  // Register everything up front: registration is the only non-thread-safe
  // registry operation, and the reactor threads don't exist yet.
  metrics_.reset(new obs::MetricsRegistry(config_.num_threads));
  ids_.accepted = metrics_->RegisterCounter("rt_accepted", "connections returned by accept()");
  ids_.served_local =
      metrics_->RegisterCounter("rt_served_local", "connections served from the core's own queue");
  ids_.served_remote =
      metrics_->RegisterCounter("rt_served_remote", "connections served from another core's queue");
  ids_.steals = metrics_->RegisterCounter("rt_steals", "affinity-mode connection steals");
  ids_.overflow_drops =
      metrics_->RegisterCounter("rt_overflow_drops", "connections dropped on a full local queue");
  ids_.epoll_wakeups = metrics_->RegisterCounter("rt_epoll_wakeups", "epoll_wait returns with work");
  ids_.to_busy =
      metrics_->RegisterCounter("rt_transitions_to_busy", "high-watermark busy-bit sets");
  ids_.to_nonbusy =
      metrics_->RegisterCounter("rt_transitions_to_nonbusy", "low-watermark busy-bit clears");
  ids_.conn_remote_frees = metrics_->RegisterCounter(
      "rt_conn_remote_frees", "PendingConn blocks freed by a core other than their owner");
  ids_.pool_exhausted = metrics_->RegisterCounter(
      "rt_pool_exhausted", "connections dropped because the conn pool had no free block");
  ids_.accept_eintr =
      metrics_->RegisterCounter("rt_accept_eintr", "accept4 EINTR skip-and-continue");
  ids_.accept_econnaborted = metrics_->RegisterCounter(
      "rt_accept_econnaborted", "accept4 ECONNABORTED: connection gone before accept");
  ids_.accept_eproto =
      metrics_->RegisterCounter("rt_accept_eproto", "accept4 EPROTO skip-and-continue");
  ids_.accept_emfile =
      metrics_->RegisterCounter("rt_accept_emfile", "accept4 EMFILE/ENFILE: out of fds");
  ids_.accept_backoff = metrics_->RegisterCounter(
      "rt_accept_backoff", "capped exponential accept backoff windows entered");
  ids_.admission_shed = metrics_->RegisterCounter(
      "rt_admission_shed", "connections accepted then shed (RST) by the admission policy");
  ids_.fault_injected =
      metrics_->RegisterCounter("rt_fault_injected", "faults injected by the chaos plan");
  ids_.failovers =
      metrics_->RegisterCounter("rt_failovers", "watchdog failovers won by this core");
  ids_.recoveries =
      metrics_->RegisterCounter("rt_recoveries", "reactors recovered after failover");
  ids_.failover_group_moves = metrics_->RegisterCounter(
      "rt_failover_group_moves", "flow groups mass-moved by failover/recovery");
  ids_.reactor_dead =
      metrics_->RegisterGauge("rt_reactor_dead", "1 = this reactor is marked dead");
  ids_.queue_len = metrics_->RegisterGauge("rt_queue_len", "accept-queue length at last update");
  ids_.busy = metrics_->RegisterGauge("rt_busy", "busy bit (1 = over high watermark)");
  ids_.queue_wait =
      metrics_->RegisterHistogram("rt_queue_wait_ns", "accept() -> service latency per connection");
  ids_.requests =
      metrics_->RegisterCounter("rt_requests", "completed request/response rounds (svc handlers)");
  ids_.aborted_at_stop = metrics_->RegisterCounter(
      "rt_aborted_at_stop", "held connections closed by a reactor's Run() exit");
  ids_.conn_open =
      metrics_->RegisterGauge("rt_conn_open", "connections currently mid-conversation");
  ids_.request_latency = metrics_->RegisterHistogram(
      "rt_request_latency_ns", "per-request service time, first byte to response flushed");
  ids_.requests_local_core = metrics_->RegisterCounter(
      "rt_requests_local_core", "requests served on the core that accepted the connection");
  ids_.requests_remote_core = metrics_->RegisterCounter(
      "rt_requests_remote_core", "requests served on a core other than the acceptor");
  ids_.conn_migrations = metrics_->RegisterCounter(
      "rt_conn_migrations", "connections first served by a core other than their acceptor");
  ids_.requests_same_llc = metrics_->RegisterCounter(
      "rt_requests_same_llc", "remote-core requests where both cores share the LLC");
  ids_.requests_cross_llc = metrics_->RegisterCounter(
      "rt_requests_cross_llc", "remote-core requests crossing LLCs on one node");
  ids_.requests_cross_node = metrics_->RegisterCounter(
      "rt_requests_cross_node", "remote-core requests crossing NUMA nodes");
  ids_.steals_same_llc = metrics_->RegisterCounter(
      "rt_steals_same_llc", "steals where thief and victim share the LLC");
  ids_.steals_cross_llc = metrics_->RegisterCounter(
      "rt_steals_cross_llc", "steals crossing LLCs on one node");
  ids_.steals_cross_node = metrics_->RegisterCounter(
      "rt_steals_cross_node", "steals crossing NUMA nodes");
  ids_.timeouts_handshake = metrics_->RegisterCounter(
      "rt_timeouts_handshake", "conns closed by the accept-to-first-byte deadline");
  ids_.timeouts_idle = metrics_->RegisterCounter(
      "rt_timeouts_idle",
      "conns closed by the between-requests idle deadline (incl. pool evictions)");
  ids_.timeouts_read = metrics_->RegisterCounter(
      "rt_timeouts_read", "conns closed by the per-request read deadline");
  ids_.timeouts_write = metrics_->RegisterCounter(
      "rt_timeouts_write", "conns closed by the per-response write deadline");
  ids_.timeouts_lifetime = metrics_->RegisterCounter(
      "rt_timeouts_lifetime", "conns closed by the absolute max-lifetime cap");
  ids_.pool_evictions = metrics_->RegisterCounter(
      "rt_pool_evictions",
      "idle conns reaped under pool pressure (subset of rt_timeouts_idle)");
  ids_.drained_gracefully = metrics_->RegisterCounter(
      "rt_drained_gracefully",
      "conns that finished normally inside a drain window (subset of served)");
  ids_.drain_duration = metrics_->RegisterHistogram(
      "rt_drain_duration_ns", "wall duration of each Stop() drain window");
  if (config_.steer && config_.mode == RtMode::kAffinity) {
    ids_.migrations_suppressed = metrics_->RegisterCounter(
        "rt_migrations_suppressed",
        "balancer epochs where hysteresis held back every candidate group");
    ids_.steer_owner_accepts = metrics_->RegisterCounter(
        "rt_steer_owner_accepts", "connections accepted on the shard owning their flow group");
    ids_.steer_cross_accepts = metrics_->RegisterCounter(
        "rt_steer_cross_accepts", "connections re-steered in user space to their owner's queue");
    ids_.migrations =
        metrics_->RegisterCounter("rt_migrations", "flow groups pulled by the long-term balancer");
    ids_.steer_cbpf =
        metrics_->RegisterGauge("rt_steer_cbpf", "1 = SO_ATTACH_REUSEPORT_CBPF program attached");
    ids_.groups_owned =
        metrics_->RegisterGauge("rt_steer_groups_owned", "steering-table flow groups per core");
  }
  if (config_.trace_capacity > 0) {
    trace_.reset(new obs::TraceRing(config_.num_threads, config_.trace_capacity));
  }
  if (config_.hwprof) {
    // Constructed here because HwProf registers its metric series, and
    // registration must finish before any writer thread exists.
    obs::hwprof::HwProfConfig hp;
    hp.sample_every = config_.hwprof_sample_every;
    hp.source = config_.hwprof_source;
    hwprof_.reset(new obs::hwprof::HwProf(hp, config_.num_threads, metrics_.get()));
  }
}

Runtime::~Runtime() { Stop(); }

bool Runtime::Start(std::string* error) {
  if (started_) {
    *error = "already started";
    return false;
  }
  if (!ValidateRtConfig(config_, error)) {
    return false;
  }
  // Reset per-run state (Stop() -> Start() reuse): metrics and the drained
  // counter are cumulative, everything else starts fresh.
  shared_.stop.store(false, std::memory_order_release);
  shared_.rr_cursor.store(0, std::memory_order_relaxed);
  reactors_.clear();
  shared_.queues.clear();
  shared_.listeners.clear();
  rt_listeners_.clear();
  handlers_.clear();
  listener_ports_.clear();
  listener_paths_.clear();

  bool stock = config_.mode == RtMode::kStock;
  port_ = config_.port;
  int num_sockets = stock ? 1 : config_.num_threads;

  auto abort_start = [this]() {
    for (int fd : listen_fds_) {
      close(fd);
    }
    listen_fds_.clear();
    rt_listeners_.clear();
    handlers_.clear();
    listener_ports_.clear();
    listener_paths_.clear();
    return false;
  };

  // Listener 0: the primary TCP listener (the only one steering applies
  // to). One shared socket in stock mode, per-core reuseport shards else.
  {
    std::unique_ptr<RtListener> primary(new RtListener);
    primary->id = 0;
    for (int i = 0; i < num_sockets; ++i) {
      // The first bind may pick the port; later shards must reuse it.
      int fd = CreateListenSocket(&port_, config_.backlog, /*reuseport=*/!stock, error);
      if (fd < 0) {
        return abort_start();
      }
      primary->fds.push_back(fd);
      listen_fds_.push_back(fd);
    }
    handlers_.push_back(svc::MakeHandler(config_.workload, config_.handler));
    primary->handler = handlers_.back().get();
    rt_listeners_.push_back(std::move(primary));
    listener_ports_.push_back(port_);
    listener_paths_.push_back(std::string());
  }

  // Extra listeners: more TCP ports (sharded like the primary) or UNIX
  // sockets (one fd every reactor polls), all feeding the same rings.
  for (size_t e = 0; e < config_.extra_listeners.size(); ++e) {
    const RtConfig::ExtraListener& extra = config_.extra_listeners[e];
    std::unique_ptr<RtListener> listener(new RtListener);
    listener->id = static_cast<int>(1 + e);
    listener->is_unix = extra.is_unix;
    uint16_t lport = 0;
    std::string lpath;
    if (extra.is_unix) {
      lpath = extra.unix_path.empty() ? AutoUnixPath(listener->id) : extra.unix_path;
      int fd = CreateUnixListenSocket(lpath, config_.backlog, error);
      if (fd < 0) {
        return abort_start();
      }
      listener->fds.push_back(fd);
      listen_fds_.push_back(fd);
    } else {
      lport = extra.port;
      for (int i = 0; i < num_sockets; ++i) {
        int fd = CreateListenSocket(&lport, config_.backlog, /*reuseport=*/!stock, error);
        if (fd < 0) {
          return abort_start();
        }
        listener->fds.push_back(fd);
        listen_fds_.push_back(fd);
      }
    }
    handlers_.push_back(svc::MakeHandler(extra.workload, extra.handler));
    listener->handler = handlers_.back().get();
    rt_listeners_.push_back(std::move(listener));
    listener_ports_.push_back(lport);
    listener_paths_.push_back(lpath);
  }

  shared_.mode = config_.mode;
  shared_.num_reactors = config_.num_threads;
  shared_.accept_batch = config_.accept_batch;
  shared_.pin_threads = config_.pin_threads;
  shared_.metrics = metrics_.get();
  shared_.ids = ids_;
  shared_.trace = trace_.get();
  for (const std::unique_ptr<RtListener>& listener : rt_listeners_) {
    shared_.listeners.push_back(listener.get());
  }
  shared_.overload = config_.overload;
  shared_.drop_budget_per_sec = config_.drop_budget_per_sec;
  shared_.hwprof = hwprof_.get();

  // Connection-lifecycle deadlines: each reactor builds its own wheel from
  // these at thread start. A fresh Start() is never mid-drain.
  shared_.clock = config_.clock != nullptr ? config_.clock : timer::MonotonicClock::Instance();
  shared_.timer_resolution_ns = config_.timer_resolution_ns;
  auto ms_to_ns = [](int ms) {
    return ms > 0 ? static_cast<uint64_t>(ms) * 1'000'000ull : 0ull;
  };
  shared_.handshake_timeout_ns = ms_to_ns(config_.handshake_timeout_ms);
  shared_.idle_timeout_ns = ms_to_ns(config_.idle_timeout_ms);
  shared_.read_timeout_ns = ms_to_ns(config_.read_timeout_ms);
  shared_.write_timeout_ns = ms_to_ns(config_.write_timeout_ms);
  shared_.max_lifetime_ns = ms_to_ns(config_.max_lifetime_ms);
  shared_.deadlines_enabled = shared_.handshake_timeout_ns != 0 ||
                              shared_.idle_timeout_ns != 0 || shared_.read_timeout_ns != 0 ||
                              shared_.write_timeout_ns != 0 || shared_.max_lifetime_ns != 0;
  shared_.pool_evict_batch = config_.pool_evict_batch;
  shared_.draining.store(false, std::memory_order_release);

  // Syscall surface: passthrough unless the chaos plan has rules.
  shared_.sys = fault::DefaultSys();
  if (!config_.fault_plan.empty()) {
    injector_.reset(new fault::FaultInjector(config_.fault_plan, config_.num_threads));
    injector_->set_stop_flag(&shared_.stop);
    injector_->set_on_inject([this](fault::CallSite, int core) {
      metrics_->Add(ids_.fault_injected, core);
    });
    shared_.sys = injector_.get();
  } else {
    injector_.reset();
  }
  // Failure domains + watchdog.
  if (config_.watchdog_timeout_ms > 0) {
    domains_.reset(new fault::FailureDomains(config_.num_threads));
    shared_.domains = domains_.get();
    shared_.watchdog_timeout_ms = config_.watchdog_timeout_ms;
  } else {
    domains_.reset();
    shared_.domains = nullptr;
    shared_.watchdog_timeout_ms = 0;
  }
  for (int i = 0; i < config_.num_threads; ++i) {
    metrics_->GaugeSet(ids_.reactor_dead, i, 0);
  }

  // Resolve the hardware topology before anything that picks a peer core
  // or places memory: the pool's arenas, the steal policy's victim orders,
  // and the director's failover parking all consult it. Flat -- by config
  // or by degradation -- is a reported state, never an error.
  if (config_.topo_mode == topo::TopoMode::kFlat) {
    topo_.reset(new topo::Topology(
        topo::Topology::Flat(config_.num_threads, "topo_mode=flat (configured)")));
  } else if (config_.topo_source != nullptr) {
    topo_.reset(new topo::Topology(
        topo::Topology::Discover(config_.topo_source, config_.num_threads)));
  } else {
    std::unique_ptr<topo::TopologySource> sysfs = topo::MakeSysfsTopologySource();
    topo_.reset(new topo::Topology(
        topo::Topology::Discover(sysfs.get(), config_.num_threads)));
  }
  if (topo_->flat() && config_.topo_mode == topo::TopoMode::kAuto) {
    std::fprintf(stderr,
                 "rt: topology flat (%s); distance classes collapse to one LLC\n",
                 topo_->flat_reason().c_str());
  }
  shared_.topo = topo_.get();

  int num_queues = stock ? 1 : config_.num_threads;
  size_t queue_cap = stock ? static_cast<size_t>(std::max(1, config_.backlog))
                           : static_cast<size_t>(max_local_len_);
  for (int i = 0; i < num_queues; ++i) {
    shared_.queues.emplace_back(new AcceptRing(queue_cap));
  }
  // Each core's arena covers every ring filling up (any core's accepts can
  // land on any ring under steering or stock mode) plus one in-flight
  // batch; beyond that the rings are full and the accept is a drop anyway.
  // config.pool_blocks_per_core overrides for pool-exhaustion tests.
  uint32_t blocks_per_core =
      config_.pool_blocks_per_core > 0
          ? config_.pool_blocks_per_core
          : static_cast<uint32_t>(static_cast<size_t>(num_queues) * queue_cap +
                                  static_cast<size_t>(config_.accept_batch) + 1);
  pool_.reset(new ConnPool(config_.num_threads, blocks_per_core, topo_.get()));
  shared_.pool = pool_.get();
  if (config_.mode == RtMode::kAffinity) {
    policy_.reset(new LockedBalancePolicy(config_.num_threads,
                                          static_cast<size_t>(max_local_len_), config_.tuning,
                                          topo_.get()));
    shared_.policy = policy_.get();
  }
  if (config_.steer && config_.mode == RtMode::kAffinity) {
    steer::FlowDirectorConfig dcfg;
    dcfg.num_groups = config_.num_flow_groups;
    dcfg.num_cores = config_.num_threads;
    dcfg.sys = shared_.sys;
    dcfg.topo = topo_.get();
    dcfg.min_epochs_between_moves = config_.migrate_min_epochs;
    director_.reset(new steer::FlowDirector(dcfg));
    if (!config_.steer_force_fallback) {
      // Attaching to any one socket of the reuseport group programs the
      // whole group (the kernel stores the program on the group). Failure
      // is survivable: the director stays in fallback mode and the accept
      // path re-steers in user space.
      std::string attach_error;
      if (!director_->Attach(listen_fds_[0], &attach_error)) {
        std::fprintf(stderr,
                     "rt: SO_ATTACH_REUSEPORT_CBPF unavailable (%s); "
                     "steering falls back to user-space re-steer\n",
                     attach_error.c_str());
      }
    }
    shared_.director = director_.get();
    shared_.migrate_interval_ms = config_.migrate_interval_ms;
    metrics_->GaugeSet(ids_.steer_cbpf, 0,
                       director_->kernel_steering() == steer::KernelSteering::kAttached ? 1 : 0);
    for (int i = 0; i < config_.num_threads; ++i) {
      metrics_->GaugeSet(ids_.groups_owned, i,
                         static_cast<uint64_t>(director_->table().OwnedBy(i)));
    }
  }

  for (int i = 0; i < config_.num_threads; ++i) {
    reactors_.emplace_back(new Reactor(i, &shared_));
  }
  for (int i = 0; i < config_.num_threads; ++i) {
    Reactor* r = reactors_[static_cast<size_t>(i)].get();
    threads_.emplace_back([r] { r->Run(); });
  }
  started_ = true;
  return true;
}

void Runtime::Stop() { Stop(config_.drain_deadline_ms); }

void Runtime::Stop(int drain_deadline_ms) {
  if (!started_) {
    return;
  }
  if (drain_deadline_ms > 0) {
    // Drain window: flipping `draining` makes each reactor unwatch its
    // listen sources on the next loop pass (no new accepts) while it keeps
    // serving its rings and open conversations. We poll the open-conns
    // gauge and the rings from here -- both monotone-toward-empty once
    // accepting stops -- and give up at the deadline; whatever is still
    // open then is aborted by the reactors' normal exit (aborted_at_stop).
    // Wall-clock on purpose: the deadline bounds THIS call's blocking time,
    // which must hold even when the conn deadlines run on a scripted clock.
    auto start = std::chrono::steady_clock::now();
    auto deadline = start + std::chrono::milliseconds(drain_deadline_ms);
    shared_.draining.store(true, std::memory_order_release);
    for (;;) {
      bool quiet = metrics_->Total(ids_.conn_open) == 0;
      if (quiet) {
        for (const auto& queue : shared_.queues) {
          if (queue->size() != 0) {
            quiet = false;
            break;
          }
        }
      }
      if (quiet || std::chrono::steady_clock::now() >= deadline) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    metrics_->Observe(ids_.drain_duration, 0,
                      static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                                std::chrono::steady_clock::now() - start)
                                                .count()));
  }
  shared_.stop.store(true, std::memory_order_release);
  for (std::thread& t : threads_) {
    t.join();
  }
  threads_.clear();
  for (int fd : listen_fds_) {
    close(fd);
  }
  listen_fds_.clear();
  shared_.listeners.clear();
  // Filesystem UNIX socket paths leave an inode behind; abstract-namespace
  // ones ('@') die with their last fd.
  for (const std::string& path : listener_paths_) {
    if (!path.empty() && path[0] != '@') {
      unlink(path.c_str());
    }
  }
  uint64_t drained = 0;
  for (auto& queue : shared_.queues) {
    // Quiescent by now (reactors joined): drain the ring and hand each
    // block back to its owner core's freelist.
    for (ConnHandle handle : queue->DrainAll()) {
      close(pool_->Get(handle)->fd);
      pool_->Free(pool_->OwnerOf(handle), handle);
      ++drained;
    }
  }
  // Accumulate (not overwrite): across Stop()/Start() cycles the metrics
  // registry keeps counting, so conservation must too.
  drained_at_stop_.fetch_add(drained, std::memory_order_acq_rel);
  shared_.draining.store(false, std::memory_order_release);
  started_ = false;
}

ReactorStats Runtime::reactor_stats(int i) const {
  ReactorStats s;
  s.accepted = metrics_->Value(ids_.accepted, i);
  s.served_local = metrics_->Value(ids_.served_local, i);
  s.served_remote = metrics_->Value(ids_.served_remote, i);
  s.steals = metrics_->Value(ids_.steals, i);
  s.overflow_drops = metrics_->Value(ids_.overflow_drops, i);
  s.epoll_wakeups = metrics_->Value(ids_.epoll_wakeups, i);
  s.queue_wait_ns = metrics_->HistogramSnapshot(ids_.queue_wait, i);
  return s;
}

RtTotals Runtime::Totals() const {
  RtTotals totals;
  totals.accepted = metrics_->Total(ids_.accepted);
  totals.served_local = metrics_->Total(ids_.served_local);
  totals.served_remote = metrics_->Total(ids_.served_remote);
  totals.steals = metrics_->Total(ids_.steals);
  totals.overflow_drops = metrics_->Total(ids_.overflow_drops);
  totals.transitions_to_busy = metrics_->Total(ids_.to_busy);
  totals.transitions_to_nonbusy = metrics_->Total(ids_.to_nonbusy);
  totals.conn_remote_frees = metrics_->Total(ids_.conn_remote_frees);
  totals.pool_exhausted = metrics_->Total(ids_.pool_exhausted);
  totals.accept_eintr = metrics_->Total(ids_.accept_eintr);
  totals.accept_econnaborted = metrics_->Total(ids_.accept_econnaborted);
  totals.accept_eproto = metrics_->Total(ids_.accept_eproto);
  totals.accept_emfile = metrics_->Total(ids_.accept_emfile);
  totals.accept_backoff = metrics_->Total(ids_.accept_backoff);
  totals.admission_shed = metrics_->Total(ids_.admission_shed);
  totals.fault_injected = metrics_->Total(ids_.fault_injected);
  totals.failovers = metrics_->Total(ids_.failovers);
  totals.recoveries = metrics_->Total(ids_.recoveries);
  totals.failover_group_moves = metrics_->Total(ids_.failover_group_moves);
  if (pool_ != nullptr) {
    totals.pool = pool_->StatsSnapshot();
  }
  if (director_ != nullptr) {
    totals.steer_owner_accepts = metrics_->Total(ids_.steer_owner_accepts);
    totals.steer_cross_accepts = metrics_->Total(ids_.steer_cross_accepts);
    totals.migrations = metrics_->Total(ids_.migrations);
    totals.migrations_suppressed = metrics_->Total(ids_.migrations_suppressed);
  }
  totals.timeouts_handshake = metrics_->Total(ids_.timeouts_handshake);
  totals.timeouts_idle = metrics_->Total(ids_.timeouts_idle);
  totals.timeouts_read = metrics_->Total(ids_.timeouts_read);
  totals.timeouts_write = metrics_->Total(ids_.timeouts_write);
  totals.timeouts_lifetime = metrics_->Total(ids_.timeouts_lifetime);
  totals.pool_evictions = metrics_->Total(ids_.pool_evictions);
  totals.drained_gracefully = metrics_->Total(ids_.drained_gracefully);
  totals.drain_duration_ns = metrics_->HistogramMerged(ids_.drain_duration);
  totals.requests = metrics_->Total(ids_.requests);
  totals.requests_local_core = metrics_->Total(ids_.requests_local_core);
  totals.requests_remote_core = metrics_->Total(ids_.requests_remote_core);
  totals.conn_migrations = metrics_->Total(ids_.conn_migrations);
  totals.requests_same_llc = metrics_->Total(ids_.requests_same_llc);
  totals.requests_cross_llc = metrics_->Total(ids_.requests_cross_llc);
  totals.requests_cross_node = metrics_->Total(ids_.requests_cross_node);
  totals.steals_same_llc = metrics_->Total(ids_.steals_same_llc);
  totals.steals_cross_llc = metrics_->Total(ids_.steals_cross_llc);
  totals.steals_cross_node = metrics_->Total(ids_.steals_cross_node);
  if (director_ != nullptr) {
    steer::ParkDistances park = director_->park_distances();
    totals.park_same_llc = park.same_llc;
    totals.park_cross_llc = park.cross_llc;
    totals.park_cross_node = park.cross_node;
  }
  if (topo_ != nullptr) {
    totals.topo_origin = topo_->origin();
    totals.numa_nodes = topo_->num_nodes();
    totals.llc_domains = topo_->num_llc_domains();
    totals.topo_flat_reason = topo_->flat_reason();
  }
  if (pool_ != nullptr) {
    totals.pool_numa_bound_cores = pool_->numa_bound_cores();
  }
  if (hwprof_ != nullptr) {
    totals.hwprof_enabled = true;
    totals.hw_available_cores = hwprof_->AvailableCores();
    totals.hw_cycles = hwprof_->EstimatedTotal(obs::hwprof::HwEvent::kCycles);
    totals.hw_instructions = hwprof_->EstimatedTotal(obs::hwprof::HwEvent::kInstructions);
    totals.hw_llc_loads = hwprof_->EstimatedTotal(obs::hwprof::HwEvent::kLlcLoads);
    totals.hw_llc_misses = hwprof_->EstimatedTotal(obs::hwprof::HwEvent::kLlcMisses);
    totals.hw_task_clock_ns = hwprof_->EstimatedTotal(obs::hwprof::HwEvent::kTaskClock);
    totals.hw_context_switches =
        hwprof_->EstimatedTotal(obs::hwprof::HwEvent::kContextSwitches);
  }
  totals.aborted_at_stop = metrics_->Total(ids_.aborted_at_stop);
  totals.open_conns = metrics_->Total(ids_.conn_open);
  totals.per_listener_accepted.reserve(rt_listeners_.size());
  for (const std::unique_ptr<RtListener>& listener : rt_listeners_) {
    totals.per_listener_accepted.push_back(listener->accepted.load(std::memory_order_relaxed));
  }
  totals.queue_wait_ns = metrics_->HistogramMerged(ids_.queue_wait);
  totals.request_latency_ns = metrics_->HistogramMerged(ids_.request_latency);
  totals.drained_at_stop = drained_at_stop_.load(std::memory_order_acquire);
  return totals;
}

uint64_t Runtime::listener_accepted(int id) const {
  if (id < 0 || id >= static_cast<int>(rt_listeners_.size())) {
    return 0;
  }
  return rt_listeners_[static_cast<size_t>(id)]->accepted.load(std::memory_order_relaxed);
}

}  // namespace rt
}  // namespace affinity
