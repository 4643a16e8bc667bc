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
  // A drain needs some lifecycle deadline to end held conversations, or it
  // cannot mean what it says; fail here, not at 3am.
  bool any_deadline = config.handshake_timeout_ms > 0 || config.idle_timeout_ms > 0 ||
                      config.read_timeout_ms > 0 || config.write_timeout_ms > 0;
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
  if (config_.clock == nullptr) {
    config_.clock = timer::MonotonicClock::Instance();
  }
  // The reactors read every setting from here; ReactorShared copies none.
  shared_.config = &config_;
  // Same split as ListenSocket: the backlog is divided evenly across the
  // per-core queues, and that share is the busy-tracking reference length.
  max_local_len_ = std::max(1, kListenBacklog / config_.num_threads);

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
  // Reset per-run state (Stop() -> Start() reuse): metrics are cumulative,
  // everything else starts fresh.
  shared_.stop.store(false, std::memory_order_release);
  shared_.rr_cursor.store(0, std::memory_order_relaxed);
  reactors_.clear();
  shared_.queues.clear();

  // The listen socket: one shared fd in stock mode, per-core reuseport
  // shards else.
  bool stock = config_.mode == RtMode::kStock;
  port_ = config_.port;
  int num_sockets = stock ? 1 : config_.num_threads;
  for (int i = 0; i < num_sockets; ++i) {
    // The first bind may pick the port; later shards must reuse it.
    int fd = CreateListenSocket(&port_, kListenBacklog, /*reuseport=*/!stock, error);
    if (fd < 0) {
      for (int open_fd : shared_.listen_fds) {
        close(open_fd);
      }
      shared_.listen_fds.clear();
      return false;
    }
    shared_.listen_fds.push_back(fd);
  }
  handler_ = svc::MakeHandler(config_.workload, config_.handler);
  shared_.handler = handler_.get();
  shared_.metrics = metrics_.get();
  shared_.ids = ids_;
  shared_.trace = trace_.get();
  shared_.hwprof = hwprof_.get();
  // A fresh Start() is never mid-drain.
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
  } else {
    domains_.reset();
  }
  shared_.domains = domains_.get();
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
  size_t queue_cap = stock ? static_cast<size_t>(kListenBacklog)
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
    policy_.reset(
        new BalancePolicy(config_.num_threads, max_local_len_, BalanceTuning{}, topo_.get()));
    shared_.policy = policy_.get();
  }
  if (config_.steer && config_.mode == RtMode::kAffinity) {
    steer::FlowDirectorConfig dcfg;
    dcfg.num_cores = config_.num_threads;
    dcfg.sys = shared_.sys;
    dcfg.topo = topo_.get();
    director_.reset(new steer::FlowDirector(dcfg));
    if (!config_.steer_force_fallback) {
      // Attaching to any one socket of the reuseport group programs the
      // whole group (the kernel stores the program on the group). Failure
      // is survivable: the director stays in fallback mode and the accept
      // path re-steers in user space.
      std::string attach_error;
      if (!director_->Attach(shared_.listen_fds[0], &attach_error)) {
        std::fprintf(stderr,
                     "rt: SO_ATTACH_REUSEPORT_CBPF unavailable (%s); "
                     "steering falls back to user-space re-steer\n",
                     attach_error.c_str());
      }
    }
    shared_.director = director_.get();
    shared_.PublishSteering();
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

void Runtime::Stop() {
  if (!started_) {
    return;
  }
  if (config_.drain_deadline_ms > 0) {
    // Drain window: flipping `draining` makes each reactor unwatch its
    // listen sources on the next loop pass (no new accepts) while it keeps
    // serving its rings and open conversations. We poll the open-conns
    // gauge and the rings from here -- both monotone-toward-empty once
    // accepting stops -- and give up at the deadline; whatever is still
    // open then is aborted by the reactors' normal exit (aborted_at_stop).
    // Wall-clock on purpose: the deadline bounds THIS call's blocking time,
    // which must hold even when the conn deadlines run on a scripted clock.
    auto start = std::chrono::steady_clock::now();
    auto deadline = start + std::chrono::milliseconds(config_.drain_deadline_ms);
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
  for (int fd : shared_.listen_fds) {
    close(fd);
  }
  shared_.listen_fds.clear();
  for (size_t qi = 0; qi < shared_.queues.size(); ++qi) {
    // Quiescent by now (reactors joined): drain the ring and hand each
    // block back to its owner core's freelist.
    uint64_t drained = 0;
    for (ConnHandle handle : shared_.queues[qi]->DrainAll()) {
      close(pool_->Get(handle)->fd);
      pool_->Free(pool_->OwnerOf(handle), handle);
      ++drained;
    }
    if (drained > 0) {
      metrics_->Add(ids_.drained_at_stop, static_cast<int>(qi), drained);
    }
  }
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
  return totals;
}

}  // namespace rt
}  // namespace affinity
