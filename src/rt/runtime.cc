#include "src/rt/runtime.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>

#include "src/rt/listener.h"

namespace affinity {
namespace rt {

namespace {

// Balancer decision trace slots per core: the trailing window a dump shows.
constexpr size_t kTraceSlotsPerCore = 1024;

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

Runtime::Runtime(const RtConfig& config)
    : config_(config),
      listener_accepted_(new std::atomic<uint64_t>[1 + config.extra_listeners.size()]()) {
  if (config_.num_threads < 1) {
    config_.num_threads = 1;
  }
  if (config_.num_threads > kMaxCores) {
    config_.num_threads = kMaxCores;  // pool handles encode the core id
  }
  // Same split as ListenSocket: the backlog is divided evenly across the
  // per-core queues, and that share is the busy-tracking reference length.
  max_local_len_ = std::max(1, config_.backlog / config_.num_threads);

  // Register everything up front: registration is the only non-thread-safe
  // registry operation, and the reactor threads don't exist yet.
  metrics_.reset(new obs::MetricsRegistry(config_.num_threads));
#define AFFINITY_RT_REGISTER_COUNTER(field, name, help) \
  ids_.field = metrics_->RegisterCounter(name, help);
#define AFFINITY_RT_REGISTER_GAUGE(field, name, help) \
  ids_.field = metrics_->RegisterGauge(name, help);
#define AFFINITY_RT_REGISTER_HISTOGRAM(field, name, help) \
  ids_.field = metrics_->RegisterHistogram(name, help);
  AFFINITY_RT_COUNTERS(AFFINITY_RT_REGISTER_COUNTER)
  AFFINITY_RT_GAUGES(AFFINITY_RT_REGISTER_GAUGE)
  AFFINITY_RT_HISTOGRAMS(AFFINITY_RT_REGISTER_HISTOGRAM)
#undef AFFINITY_RT_REGISTER_COUNTER
#undef AFFINITY_RT_REGISTER_GAUGE
#undef AFFINITY_RT_REGISTER_HISTOGRAM
  trace_.reset(new obs::TraceRing(config_.num_threads, kTraceSlotsPerCore));
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
    primary->accepted = &listener_accepted_[0];
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
    listener->accepted = &listener_accepted_[1 + e];
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
                                  static_cast<size_t>(kReactorBatch) + 1);
  pool_.reset(new ConnPool(config_.num_threads, blocks_per_core, topo_.get()));
  shared_.pool = pool_.get();
  if (config_.mode == RtMode::kAffinity) {
    policy_.reset(new LockedBalancePolicy(config_.num_threads, max_local_len_, BalanceTuning{},
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
      metrics_->GaugeSet(ids_.steer_groups_owned, i,
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
      bool quiet = metrics_->Total(ids_.open_conns) == 0;
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
    metrics_->Observe(ids_.drain_duration_ns, 0,
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

RtTotals Runtime::Totals() const {
  RtTotals totals;
#define AFFINITY_RT_TOTAL(field, name, help) totals.field = metrics_->Total(ids_.field);
#define AFFINITY_RT_MERGED(field, name, help) \
  totals.field = metrics_->HistogramMerged(ids_.field);
  AFFINITY_RT_COUNTERS(AFFINITY_RT_TOTAL)
  AFFINITY_RT_GAUGES(AFFINITY_RT_TOTAL)
  AFFINITY_RT_HISTOGRAMS(AFFINITY_RT_MERGED)
#undef AFFINITY_RT_TOTAL
#undef AFFINITY_RT_MERGED
  if (pool_ != nullptr) {
    totals.pool = pool_->StatsSnapshot();
  }
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
  for (size_t id = 0; id <= config_.extra_listeners.size(); ++id) {
    totals.per_listener_accepted.push_back(listener_accepted(static_cast<int>(id)));
  }
  totals.drained_at_stop = drained_at_stop_.load(std::memory_order_acquire);
  return totals;
}

uint64_t Runtime::listener_accepted(int id) const {
  if (id < 0 || static_cast<size_t>(id) > config_.extra_listeners.size()) {
    return 0;
  }
  return listener_accepted_[static_cast<size_t>(id)].load(std::memory_order_relaxed);
}

}  // namespace rt
}  // namespace affinity
