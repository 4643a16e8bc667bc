// Live-socket loopback benchmark for the src/rt/ runtime: real TCP
// connections on 127.0.0.1 accepted by N reactor threads in the three
// accept arrangements (stock / fine / affinity), connection-per-request
// closed-loop clients.
//
// Reports accepted-connections/sec and the accept->service queue-wait
// distribution (the user-space share of Table 1's accept-path latency).
// Expectation mirrors the simulator: affinity serves everything from the
// local core's queue with ~zero steals when load is even, and sustains at
// least stock's throughput; stock funnels every reactor through one shared
// queue and herds every thread on each connection.
//
// Every run also prints the server conservation law, accepted against
// RtTotals::accounted(), as "balanced" or "IMBALANCED"; an imbalance fails
// the run and the exit status.
//
// Flags:
//   --mode=stock|fine|affinity|all   (default all)
//   --threads=N                      (default 4)
//   --clients=N                      (default 2*threads)
//   --duration-ms=N                  (default 1000)
//   --no-pin                         (skip thread pinning; for tiny CI hosts)
//   --check                          (exit nonzero unless affinity holds at
//                                     least ~90% of stock's conns/sec; the
//                                     margin absorbs scheduler noise on the
//                                     shared-CPU CI hosts)
//   --stats-interval=N               (snapshot the live metrics registry every
//                                     N ms while the run is in flight and print
//                                     per-interval conns/sec + steal rates;
//                                     0 = off, the paper's balancer tick is 100)
//   --json=FILE                      (write machine-readable results -- one row
//                                     per run carrying the runtime's whole
//                                     metrics-registry snapshot, plus the
//                                     interval time series when --stats-interval
//                                     is on -- via the shared bench JSON writer)
//   --skew=G                         (flow-group steering experiment: G flow
//                                     groups of deterministic source-port load,
//                                     all initially owned by core 0 -- the
//                                     paper's Section 6.5 skew. Replaces the
//                                     mode sweep with two affinity runs,
//                                     "steal-only" (migration off) and
//                                     "migrate" (the 100 ms balancer), and
//                                     turns on interval sampling so the
//                                     convergence curve is visible. --check
//                                     then requires the migrate run's
//                                     steady-state remote-serve fraction to
//                                     beat steal-only's)
//   --steer=off|on|fallback          (flow-group steering for affinity runs:
//                                     "on" attaches the SO_ATTACH_REUSEPORT_CBPF
//                                     program (degrading at runtime if the
//                                     kernel refuses), "fallback" skips the
//                                     attach and steers in user space only.
//                                     Default: off, or "on" when --skew is set)
//   --baseline=FILE                  (perf regression gate: read a committed
//                                     BENCH_rt_loopback.json and exit nonzero
//                                     unless this run's affinity conns/sec
//                                     holds at least 90% of the baseline's --
//                                     the same noise margin as --check, for
//                                     the same shared-CPU CI hosts)
//   --connect-timeout-ms=N           (client-side bound on every blocking
//                                     socket call; also the client's retry
//                                     backoff trigger -- see rt::LoadClient.
//                                     Default 1000)
//   --chaos=none|stall|kill          (fault injection on the last reactor:
//                                     "stall" wedges its epoll_wait for 500 ms
//                                     mid-run (watchdog fails it over, then it
//                                     recovers), "kill" makes it exit its loop
//                                     permanently. Both arm the watchdog and
//                                     print the failover ledger. --baseline
//                                     runs with injection disabled regardless)
//   --workload=accept|echo|static|stream
//                                    (what each connection carries: "accept"
//                                     is the connection-per-request cycle
//                                     (one byte, then close); the others run
//                                     the request/response handlers -- persistent
//                                     connections, --rpc requests each, with
//                                     per-request p50/p95 latency columns and
//                                     a requests/sec rate. --check under these
//                                     gates affinity/stock REQUESTS/sec >= 0.90.
//                                     "stream" serves --stream-chunks chunks of
//                                     --stream-chunk bytes per request -- the
//                                     multi-buffer response that parks every
//                                     conversation on kWantWrite mid-response)
//   --stream-chunk=N / --stream-chunks=N
//                                    (stream response shape; default 1024 x 64
//                                     = 64 KiB per request)
//   --rpc=N                          (requests per connection for the
//                                     request/response workloads; default 8 --
//                                     the paper's persistent-connection sweep
//                                     centers on a handful of requests/conn)
//   --payload=N                      (request payload bytes before the newline
//                                     for echo; default 64)
//   --sweep=N                        (backpressure sweep: N steps of offered
//                                     load -- step k runs k*--clients client
//                                     threads -- against one affinity server
//                                     under the echo workload. Per step:
//                                     goodput (requests/sec that completed),
//                                     refused + timed-out connects, and the
//                                     p95 latency of BOTH the successful
//                                     connects and the refusals themselves --
//                                     how fast an overloaded server turns
//                                     clients around. Replaces the mode sweep)
//   --sweep-policy=rst|backlog       (overload disposition when a connection
//                                     cannot be queued: "rst" sheds it
//                                     immediately with an RST -- the default,
//                                     and what the committed baseline was
//                                     measured with -- "backlog" leaves the
//                                     overflow to age in the kernel's accept
//                                     backlog. The second arm of the
//                                     backpressure sweep: same offered load,
//                                     opposite shedding story)
//   --hwprof=on|off                  (per-reactor perf_event counter groups
//                                     and the hardware columns they feed:
//                                     cycles/req and LLC-miss/req, plus the
//                                     connection-locality ledger's locality %.
//                                     Default on. When the PMU refuses --
//                                     perf_event_paranoid, containers, CI --
//                                     the hardware columns print "unavail"
//                                     and the run still succeeds)
//   --topo=auto|flat|script:<file>   (hardware-topology model for the runs:
//                                     "auto" discovers core/LLC/NUMA placement
//                                     from sysfs (degrading to flat with an
//                                     explicit reason when sysfs cannot
//                                     describe the host), "flat" skips
//                                     discovery -- the topology-blind legacy
//                                     behavior -- and "script:<file>" loads a
//                                     scripted map ("core <id> node <n> llc
//                                     <l> [smt <s>]" per line) so multi-socket
//                                     steal orders and failover parking are
//                                     visible on any host. Each run prints the
//                                     resolved model and the distance split of
//                                     remote requests / steals / failover
//                                     parks; --json rows carry the model and
//                                     the park split, and the request and
//                                     steal splits ride in each row's
//                                     "metrics" snapshot. Default auto)
//   --stall=none|handshake|midrequest|midread / --timeout-ms=N / --drain-ms=N
//                                    (lifecycle deadlines: every client
//                                     connection wedges at the named point
//                                     and the handshake/idle/read/write
//                                     deadlines, all --timeout-ms (default 50
//                                     with a stall or a drain), must reap it;
//                                     --drain-ms stops the server with
//                                     Stop(drain) while the load is still
//                                     connected. Each run prints "lifecycle:
//                                     hs= idle= read= write=" (deadline
//                                     closes per class), "evict=" (idle conns
//                                     reaped under pool pressure), "reaped="
//                                     (client-side stalls the server closed),
//                                     "drained=" / "aborted=" (how the drain
//                                     split the held conns) and "drain=" (its
//                                     wall time). A stall run that reaps
//                                     nothing fails. Incompatible with
//                                     --baseline, --check and --sweep)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/reporter.h"
#include "src/fault/fault_plan.h"
#include "src/obs/export.h"
#include "src/obs/json_writer.h"
#include "src/obs/stats_sampler.h"
#include "src/rt/load_client.h"
#include "src/rt/runtime.h"
#include "src/steer/flow_director.h"
#include "src/topo/scripted_source.h"
#include "src/steer/skew.h"
#include "src/svc/conn_handler.h"

using namespace affinity;
using namespace affinity::rt;

namespace {

struct Options {
  std::string mode = "all";
  int threads = 4;
  int clients = 0;  // 0 = 2*threads
  int duration_ms = 1000;
  bool pin = true;
  bool check = false;
  int stats_interval_ms = 0;  // 0 = no live sampling
  std::string json_path;
  std::string baseline_path;
  int skew_groups = 0;        // 0 = even load, >0 = skewed flow groups at core 0
  std::string steer = "off";  // off | on | fallback
  int connect_timeout_ms = 1000;
  std::string chaos = "none";  // none | stall | kill
  svc::WorkloadKind workload = svc::WorkloadKind::kAccept;
  int rpc = 8;        // requests per connection (request/response workloads)
  int payload = 64;   // request payload bytes (echo)
  int sweep = 0;      // >0: backpressure sweep with this many load steps
  std::string sweep_policy = "rst";  // rst | backlog (overload disposition)
  bool hwprof = true;                // perf_event counters + locality columns
  int stream_chunk = 1024;           // stream workload: bytes per chunk
  int stream_chunks = 64;            // stream workload: chunks per response
  std::string topo = "auto";         // auto | flat | script:<file>
  // Lifecycle-deadline experiment: some client threads deliberately stall
  // (slowloris) and the reactors' timer wheels must reap them.
  std::string stall = "none";  // none | handshake | midrequest | midread
  int timeout_ms = 0;          // phase-deadline budget; 0 = 50 when stall/drain on
  int drain_ms = 0;            // >0: Stop(drain) with clients still connected
  // Resolved from `topo` in main(), threaded into every run's RtConfig.
  // The scripted source (non-owning; lives in main) must outlive all runs.
  topo::TopoMode topo_mode = topo::TopoMode::kAuto;
  topo::TopologySource* topo_source = nullptr;
};

bool ParseFlag(const char* arg, const char* name, const char** value) {
  size_t len = strlen(name);
  if (strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

Options ParseOptions(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (ParseFlag(argv[i], "--mode", &v)) {
      opt.mode = v;
    } else if (ParseFlag(argv[i], "--threads", &v)) {
      opt.threads = atoi(v);
    } else if (ParseFlag(argv[i], "--clients", &v)) {
      opt.clients = atoi(v);
    } else if (ParseFlag(argv[i], "--duration-ms", &v)) {
      opt.duration_ms = atoi(v);
    } else if (ParseFlag(argv[i], "--stats-interval", &v)) {
      opt.stats_interval_ms = atoi(v);
    } else if (ParseFlag(argv[i], "--json", &v)) {
      opt.json_path = v;
    } else if (ParseFlag(argv[i], "--baseline", &v)) {
      opt.baseline_path = v;
    } else if (ParseFlag(argv[i], "--skew", &v)) {
      opt.skew_groups = atoi(v);
      if (strcmp(opt.steer.c_str(), "off") == 0) {
        opt.steer = "on";  // skew without steering would just be noise
      }
    } else if (ParseFlag(argv[i], "--steer", &v)) {
      opt.steer = v;
    } else if (ParseFlag(argv[i], "--connect-timeout-ms", &v)) {
      opt.connect_timeout_ms = atoi(v);
    } else if (ParseFlag(argv[i], "--chaos", &v)) {
      opt.chaos = v;
    } else if (ParseFlag(argv[i], "--workload", &v)) {
      if (!svc::ParseWorkload(v, &opt.workload)) {
        fprintf(stderr, "unknown --workload=%s\n", v);
        exit(2);
      }
    } else if (ParseFlag(argv[i], "--rpc", &v)) {
      opt.rpc = atoi(v);
    } else if (ParseFlag(argv[i], "--payload", &v)) {
      opt.payload = atoi(v);
    } else if (ParseFlag(argv[i], "--sweep", &v)) {
      opt.sweep = atoi(v);
    } else if (ParseFlag(argv[i], "--sweep-policy", &v)) {
      opt.sweep_policy = v;
    } else if (ParseFlag(argv[i], "--stream-chunk", &v)) {
      opt.stream_chunk = atoi(v);
    } else if (ParseFlag(argv[i], "--stream-chunks", &v)) {
      opt.stream_chunks = atoi(v);
    } else if (ParseFlag(argv[i], "--topo", &v)) {
      opt.topo = v;
    } else if (ParseFlag(argv[i], "--stall", &v)) {
      opt.stall = v;
    } else if (ParseFlag(argv[i], "--timeout-ms", &v)) {
      opt.timeout_ms = atoi(v);
    } else if (ParseFlag(argv[i], "--drain-ms", &v)) {
      opt.drain_ms = atoi(v);
    } else if (ParseFlag(argv[i], "--hwprof", &v)) {
      if (strcmp(v, "on") == 0) {
        opt.hwprof = true;
      } else if (strcmp(v, "off") == 0) {
        opt.hwprof = false;
      } else {
        fprintf(stderr, "unknown --hwprof=%s\n", v);
        exit(2);
      }
    } else if (strcmp(argv[i], "--no-pin") == 0) {
      opt.pin = false;
    } else if (strcmp(argv[i], "--check") == 0) {
      opt.check = true;
    } else {
      fprintf(stderr,
              "usage: %s [--mode=stock|fine|affinity|all] [--threads=N] "
              "[--clients=N] [--duration-ms=N] [--no-pin] [--check] "
              "[--stats-interval=N] [--json=FILE] [--baseline=FILE] [--skew=G] "
              "[--steer=off|on|fallback] [--connect-timeout-ms=N] "
              "[--chaos=none|stall|kill] "
              "[--workload=accept|echo|static|stream] [--rpc=N] [--payload=N] "
              "[--stream-chunk=N] [--stream-chunks=N] [--sweep=N] "
              "[--sweep-policy=rst|backlog] [--hwprof=on|off] "
              "[--topo=auto|flat|script:FILE] "
              "[--stall=none|handshake|midrequest|midread] [--timeout-ms=N] "
              "[--drain-ms=N]\n",
              argv[0]);
      exit(2);
    }
  }
  if (opt.threads < 1) opt.threads = 1;
  if (opt.clients <= 0) opt.clients = 2 * opt.threads;
  if (opt.duration_ms < 1) opt.duration_ms = 1;
  if (opt.skew_groups > 0 && opt.stats_interval_ms <= 0) {
    opt.stats_interval_ms = 100;  // the convergence curve needs intervals
  }
  if (opt.steer != "off" && opt.steer != "on" && opt.steer != "fallback") {
    fprintf(stderr, "unknown --steer=%s\n", opt.steer.c_str());
    exit(2);
  }
  if (opt.chaos != "none" && opt.chaos != "stall" && opt.chaos != "kill") {
    fprintf(stderr, "unknown --chaos=%s\n", opt.chaos.c_str());
    exit(2);
  }
  if (opt.chaos != "none" && !opt.baseline_path.empty()) {
    // The committed baseline was measured without injection; a chaos run
    // against it would only ever report a bogus regression.
    fprintf(stderr, "--chaos is incompatible with --baseline\n");
    exit(2);
  }
  if (opt.connect_timeout_ms < 1) opt.connect_timeout_ms = 1;
  if (opt.rpc < 1) opt.rpc = 1;
  if (opt.payload < 1) opt.payload = 1;
  if (opt.sweep < 0) opt.sweep = 0;
  if (opt.sweep_policy != "rst" && opt.sweep_policy != "backlog") {
    fprintf(stderr, "unknown --sweep-policy=%s\n", opt.sweep_policy.c_str());
    exit(2);
  }
  if (opt.sweep_policy == "backlog" && !opt.baseline_path.empty()) {
    // The committed baseline was measured under the RST policy; a backlog
    // run against it measures a different shedding story.
    fprintf(stderr, "--sweep-policy=backlog is incompatible with --baseline\n");
    exit(2);
  }
  if (opt.sweep > 0) {
    if (opt.skew_groups > 0 || !opt.baseline_path.empty()) {
      // The sweep replaces the mode sweep; mixing it with the skew
      // experiment or the committed-baseline gate would compare
      // incomparable runs.
      fprintf(stderr, "--sweep is incompatible with --skew and --baseline\n");
      exit(2);
    }
    if (opt.workload == svc::WorkloadKind::kAccept) {
      opt.workload = svc::WorkloadKind::kEcho;  // backpressure needs requests
    }
  }
  if (opt.stream_chunk < 1) opt.stream_chunk = 1;
  if (opt.stream_chunks < 1) opt.stream_chunks = 1;
  if (opt.stall != "none" && opt.stall != "handshake" && opt.stall != "midrequest" &&
      opt.stall != "midread") {
    fprintf(stderr, "unknown --stall=%s\n", opt.stall.c_str());
    exit(2);
  }
  if (opt.timeout_ms < 0) opt.timeout_ms = 0;
  if (opt.drain_ms < 0) opt.drain_ms = 0;
  if ((opt.stall != "none" || opt.drain_ms > 0) && opt.timeout_ms == 0) {
    // Stall clients without deadlines would just pin the pool; a drain run
    // without deadlines has nothing reaping stragglers before the budget.
    opt.timeout_ms = 50;
  }
  if ((opt.stall != "none" || opt.timeout_ms > 0) &&
      (!opt.baseline_path.empty() || opt.check || opt.sweep > 0)) {
    // Reaping stalled clients changes the throughput story; the committed
    // baseline/ratio gates and the sweep were measured without it.
    fprintf(stderr, "--stall/--timeout-ms are incompatible with --baseline/--check/--sweep\n");
    exit(2);
  }
  if (opt.stall != "none" && opt.workload == svc::WorkloadKind::kAccept) {
    // midrequest/midread need a request protocol to stall inside of, and a
    // handshake stall against the accept workload races the server's
    // immediate close. Echo keeps the healthy-traffic lanes measurable.
    opt.workload = svc::WorkloadKind::kEcho;
  }
  if (opt.topo != "auto" && opt.topo != "flat" &&
      opt.topo.compare(0, 7, "script:") != 0) {
    fprintf(stderr, "unknown --topo=%s\n", opt.topo.c_str());
    exit(2);
  }
  if (opt.skew_groups > 0 && opt.workload != svc::WorkloadKind::kAccept) {
    // The skew experiment's convergence metric is per-connection locality;
    // deterministic source ports + request rounds compose fine, but keep
    // the committed experiment exactly what the baseline was measured on.
    fprintf(stderr, "--skew requires --workload=accept\n");
    exit(2);
  }
  return opt;
}

// One benchmark run: a mode plus its steering arrangement. The skew
// experiment runs the same affinity mode twice with different labels.
struct RunSpec {
  RtMode mode = RtMode::kAffinity;
  std::string label;
  bool steer = false;
  bool force_fallback = false;
  int migrate_interval_ms = 0;  // 0 = migration off
  int skew_groups = 0;          // 0 = ephemeral ports, >0 = skewed to core 0
};

struct RunResult {
  double conns_per_sec = 0;
  double p50_us = 0;
  double p90_us = 0;
  double p95_us = 0;
  double p99_us = 0;
  RtTotals totals;
  // Read off the runtime's own objects before it goes away: the resolved
  // topology, the pool's mbind-bound arenas and the profiler's whole-run
  // estimates (zero unless some reactor's counter group opened).
  std::optional<topo::Topology> topo;
  int numa_bound_arenas = 0;
  bool hw_available = false;
  uint64_t hw_cycles = 0;
  uint64_t hw_llc_misses = 0;
  uint64_t client_completed = 0;
  uint64_t client_errors = 0;
  // Request/response workloads: client-side per-request ledger.
  uint64_t client_requests = 0;
  uint64_t client_refused = 0;
  uint64_t client_timeouts = 0;
  double requests_per_sec = 0;
  double req_p50_us = 0;
  double req_p95_us = 0;
  double req_p99_us = 0;
  double connect_p95_us = 0;
  double refused_connect_p95_us = 0;
  std::vector<obs::IntervalSample> intervals;  // when --stats-interval is on
  std::string kernel_steering;                 // "cbpf" / "fallback" when steering
  std::string hwprof_reason;  // why the PMU refused, when it did (core 0's story)
  uint64_t client_stalled_reaped = 0;  // stall lanes closed by the reaper
  double drain_window_ms = 0;          // measured Stop(drain) duration
  std::string metrics_json;            // obs::ToJson of the registry after Stop()
  bool ok = false;
};

// Remote-serve fraction over the steady-state tail (the last half of the
// interval series); whole-run totals when sampling was off. This is the
// convergence metric: with migration on, the steering table rewrites pull
// the skewed groups to their stealers and remote service dies away; without
// it, every skewed connection keeps being served by a steal.
double SteadyRemoteFrac(const RunResult& r) {
  double local = 0;
  double remote = 0;
  for (size_t i = r.intervals.size() / 2; i < r.intervals.size(); ++i) {
    const obs::RateSeries* l = r.intervals[i].Find("rt_served_local");
    const obs::RateSeries* rm = r.intervals[i].Find("rt_served_remote");
    local += l != nullptr ? l->total : 0.0;
    remote += rm != nullptr ? rm->total : 0.0;
  }
  if (local + remote <= 0) {
    local = static_cast<double>(r.totals.served_local);
    remote = static_cast<double>(r.totals.served_remote);
  }
  return local + remote > 0 ? remote / (local + remote) : 0.0;
}

// Counter total / requests (an accept-workload connection is one request),
// or 0 when the event never counted -- either the whole group failed to
// open (perf_event_paranoid, containers) or just this event did (VMs
// routinely reject the hardware/LLC events while software events open fine;
// a live cycles counter cannot read zero across thousands of requests). The
// degraded path is a reported state, not a failure.
double HwPerReq(const RunResult& r, uint64_t numer) {
  if (!r.hw_available || r.totals.requests == 0) {
    return 0;
  }
  return static_cast<double>(numer) / static_cast<double>(r.totals.requests);
}

// One hardware-rate table cell: the rate, or "unavail" when it is 0.
std::string HwPerReqCell(const RunResult& r, uint64_t numer, int decimals) {
  double rate = HwPerReq(r, numer);
  return rate > 0 ? TablePrinter::Num(rate, decimals) : "unavail";
}

// The locality ledger's score: % of requests served on their accept core.
// "n/a" before any request completed.
std::string LocalityCell(const RunResult& r) {
  double f = r.totals.locality_fraction();
  return f >= 0 ? TablePrinter::Num(100.0 * f, 1) : "n/a";
}

// One line per run: the resolved topology and where the remote traffic
// landed on it. The three triplets are the same_llc/cross_llc/cross_node
// split of remote-core requests, steals, and failover parks -- on a flat
// model everything folds into the first slot (there is only one LLC).
void PrintTopoLine(const std::string& label, const RunResult& r) {
  const RtTotals& t = r.totals;
  const topo::Topology& model = *r.topo;
  std::printf("    [%s] topo: %s nodes=%d llc=%d", label.c_str(),
              topo::TopoOriginName(model.origin()), model.num_nodes(), model.num_llc_domains());
  if (!model.flat_reason().empty()) {
    std::printf(" (%s)", model.flat_reason().c_str());
  }
  std::printf("  req llc/xllc/xnode=%llu/%llu/%llu  steal=%llu/%llu/%llu"
              "  park=%llu/%llu/%llu  numa-bound arenas=%d\n",
              static_cast<unsigned long long>(t.requests_same_llc),
              static_cast<unsigned long long>(t.requests_cross_llc),
              static_cast<unsigned long long>(t.requests_cross_node),
              static_cast<unsigned long long>(t.steals_same_llc),
              static_cast<unsigned long long>(t.steals_cross_llc),
              static_cast<unsigned long long>(t.steals_cross_node),
              static_cast<unsigned long long>(t.park_same_llc),
              static_cast<unsigned long long>(t.park_cross_llc),
              static_cast<unsigned long long>(t.park_cross_node), r.numa_bound_arenas);
}

// Renders the sampler's per-interval series as a JSON array: per-core
// conns/sec and accept shares, total conns/sec, steal and remote-serve
// rates, and cumulative steals/migrations per sample -- the skew
// experiment's convergence curve.
std::string IntervalsToJson(const std::vector<obs::IntervalSample>& intervals) {
  obs::JsonWriter w;
  w.BeginArray();
  for (const obs::IntervalSample& s : intervals) {
    const obs::RateSeries* local = s.Find("rt_served_local");
    const obs::RateSeries* remote = s.Find("rt_served_remote");
    const obs::RateSeries* accepted = s.Find("rt_accepted");
    const obs::RateSeries* steal_rate = s.Find("rt_steals");
    const obs::SeriesSnap* steals_cum = s.snapshot.Find("rt_steals");
    const obs::SeriesSnap* migrations_cum = s.snapshot.Find("rt_migrations");
    w.BeginObject();
    w.Key("t_ms").UInt(s.t_ms);
    w.Key("interval_s").Double(s.interval_s);
    double total = 0;
    w.Key("conns_per_sec_per_core").BeginArray();
    size_t cores = local != nullptr ? local->per_core.size() : 0;
    for (size_t c = 0; c < cores; ++c) {
      double per_core = local->per_core[c] + (remote != nullptr ? remote->per_core[c] : 0.0);
      total += per_core;
      w.Double(per_core);
    }
    w.EndArray();
    // Where accept() ran this interval: with flow-group steering attached
    // this share follows the steering table, so migration shows up as the
    // hot core's share spreading out.
    double accept_total = 0;
    w.Key("accepts_per_sec_per_core").BeginArray();
    size_t accept_cores = accepted != nullptr ? accepted->per_core.size() : 0;
    for (size_t c = 0; c < accept_cores; ++c) {
      accept_total += accepted->per_core[c];
      w.Double(accepted->per_core[c]);
    }
    w.EndArray();
    w.Key("accepts_per_sec").Double(accept_total);
    w.Key("conns_per_sec").Double(total);
    w.Key("remote_frac")
        .Double(total > 0 ? (remote != nullptr ? remote->total : 0.0) / total : 0.0);
    w.Key("steals_per_sec").Double(steal_rate != nullptr ? steal_rate->total : 0.0);
    w.Key("steals").UInt(steals_cum != nullptr ? steals_cum->total : 0);
    w.Key("migrations").UInt(migrations_cum != nullptr ? migrations_cum->total : 0);
    w.EndObject();
  }
  w.EndArray();
  return w.str();
}

void PrintIntervalLine(const std::string& label, const obs::IntervalSample& s) {
  const obs::RateSeries* local = s.Find("rt_served_local");
  const obs::RateSeries* remote = s.Find("rt_served_remote");
  const obs::RateSeries* steal_rate = s.Find("rt_steals");
  const obs::SeriesSnap* migrations_cum = s.snapshot.Find("rt_migrations");
  double remote_total = remote != nullptr ? remote->total : 0.0;
  double total = (local != nullptr ? local->total : 0.0) + remote_total;
  std::printf("    [%s] t=%4llu ms  conns/s=%7.0f  remote=%4.1f%%  steals/s=%5.0f  migr=%3llu"
              "  per-core:",
              label.c_str(), static_cast<unsigned long long>(s.t_ms), total,
              total > 0 ? 100.0 * remote_total / total : 0.0,
              steal_rate != nullptr ? steal_rate->total : 0.0,
              static_cast<unsigned long long>(migrations_cum != nullptr ? migrations_cum->total
                                                                        : 0));
  size_t cores = local != nullptr ? local->per_core.size() : 0;
  for (size_t c = 0; c < cores; ++c) {
    std::printf(" %.0f", local->per_core[c] + (remote != nullptr ? remote->per_core[c] : 0.0));
  }
  std::printf("\n");
}

// One --json results row. The registry snapshot rides along whole under
// "metrics"; the keys before it are what the registry does not hold: run
// labels, client-side numbers, the topology model, drain timing, and the
// derived headline numbers. The row opens with "mode" then
// "conns_per_sec", the pair ReadBaselineAffinityRate scans for.
std::string RowJson(const std::string& label, const RunResult& r, const Options& opt) {
  const RtTotals& t = r.totals;
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("mode").String(label);
  w.Key("conns_per_sec").Double(r.conns_per_sec);
  w.Key("p50_queue_wait_us").Double(r.p50_us);
  w.Key("p90_queue_wait_us").Double(r.p90_us);
  w.Key("p95_queue_wait_us").Double(r.p95_us);
  w.Key("p99_queue_wait_us").Double(r.p99_us);
  w.Key("workload").String(svc::WorkloadName(opt.workload));
  w.Key("overload_policy").String(opt.sweep_policy);
  w.Key("stall_mode").String(opt.stall);
  w.Key("offered_clients").Int(opt.clients);
  w.Key("client_errors").UInt(r.client_errors);
  w.Key("requests_per_sec").Double(r.requests_per_sec);
  w.Key("req_p50_us").Double(r.req_p50_us);
  w.Key("req_p95_us").Double(r.req_p95_us);
  w.Key("req_p99_us").Double(r.req_p99_us);
  w.Key("refused").UInt(r.client_refused);
  w.Key("timeouts").UInt(r.client_timeouts);
  w.Key("connect_p95_us").Double(r.connect_p95_us);
  w.Key("refused_connect_p95_us").Double(r.refused_connect_p95_us);
  w.Key("stalled_reaped").UInt(r.client_stalled_reaped);
  double f = t.locality_fraction();
  w.Key("locality_pct").Double(f >= 0 ? 100.0 * f : 0);
  w.Key("hwprof_available").Bool(r.hw_available);
  w.Key("cycles_per_req").Double(HwPerReq(r, r.hw_cycles));
  w.Key("llc_miss_per_req").Double(HwPerReq(r, r.hw_llc_misses));
  w.Key("topo_origin").String(topo::TopoOriginName(r.topo->origin()));
  w.Key("numa_nodes").Int(r.topo->num_nodes());
  w.Key("llc_domains").Int(r.topo->num_llc_domains());
  w.Key("drain_deadline_ms").Int(opt.drain_ms);
  w.Key("drain_ms").Double(r.drain_window_ms);
  if (!r.intervals.empty()) {
    w.Key("intervals").Raw(IntervalsToJson(r.intervals));
  }
  w.Key("metrics").Raw(r.metrics_json);
  w.EndObject();
  return w.str();
}

RunResult RunMode(const RunSpec& spec, const Options& opt) {
  RunResult result;

  RtConfig config;
  config.mode = spec.mode;
  config.num_threads = opt.threads;
  config.pin_threads = opt.pin;
  config.workload = opt.workload;
  config.handler.stream_chunk_bytes = opt.stream_chunk;
  config.handler.stream_chunks = opt.stream_chunks;
  config.steer = spec.steer;
  config.steer_force_fallback = spec.force_fallback;
  config.migrate_interval_ms = spec.migrate_interval_ms;
  config.hwprof = opt.hwprof;
  config.topo_mode = opt.topo_mode;
  config.topo_source = opt.topo_source;
  config.overload = opt.sweep_policy == "backlog" ? OverloadPolicy::kLeaveInBacklog
                                                  : OverloadPolicy::kAcceptThenRst;
  if (opt.timeout_ms > 0) {
    // Lifecycle-deadline run: every phase gets the same budget.
    config.handshake_timeout_ms = opt.timeout_ms;
    config.idle_timeout_ms = opt.timeout_ms;
    config.read_timeout_ms = opt.timeout_ms;
    config.write_timeout_ms = opt.timeout_ms;
  }
  config.drain_deadline_ms = opt.drain_ms;
  if (opt.chaos != "none") {
    // Wound the last reactor (core 0 owns the skewed flow groups, so it
    // stays healthy) once the run has warmed up, and arm the watchdog.
    int victim = opt.threads - 1;
    config.fault_plan =
        opt.chaos == "stall"
            ? fault::FaultPlan::ReactorStall(victim, /*after_calls=*/200, /*stall_ms=*/500)
            : fault::FaultPlan::ReactorKill(victim, /*after_calls=*/200);
    config.watchdog_timeout_ms = 50;
  }
  Runtime runtime(config);
  std::string error;
  if (!runtime.Start(&error)) {
    fprintf(stderr, "  %s: runtime start failed: %s\n", spec.label.c_str(), error.c_str());
    return result;
  }
  if (runtime.director() != nullptr) {
    result.kernel_steering = steer::KernelSteeringName(runtime.director()->kernel_steering());
  }

  LoadClientConfig client_config;
  client_config.port = runtime.port();
  client_config.num_threads = opt.clients;
  client_config.connect_timeout_ms = opt.connect_timeout_ms;
  client_config.workload = opt.workload;
  client_config.requests_per_conn = opt.rpc;
  client_config.payload_bytes = opt.payload;
  if (opt.stall == "handshake") {
    client_config.stall = StallMode::kHandshake;
  } else if (opt.stall == "midrequest") {
    client_config.stall = StallMode::kMidRequest;
  } else if (opt.stall == "midread") {
    client_config.stall = StallMode::kMidRead;
  }
  if (spec.skew_groups > 0) {
    // Section 6.5's skew: every connection's flow group is initially owned
    // by core 0, from deterministic source ports.
    client_config.src_ports =
        steer::SkewedSourcePorts(/*owner_core=*/0, opt.threads,
                                 runtime.director()->table().num_groups(),
                                 spec.skew_groups, /*ports_per_group=*/8,
                                 /*exclude_port=*/runtime.port());
  }
  LoadClient client(client_config);

  // Live sampling: snapshots the registry mid-run, while the reactors and
  // clients are all in flight (the whole point of the obs registry).
  std::unique_ptr<obs::StatsSampler> sampler;
  if (opt.stats_interval_ms > 0) {
    sampler.reset(new obs::StatsSampler(&runtime.metrics(), opt.stats_interval_ms));
  }

  auto start = std::chrono::steady_clock::now();
  client.Start();
  if (sampler != nullptr) {
    sampler->Start();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(opt.duration_ms));
  if (sampler != nullptr) {
    sampler->Stop();  // before the runtime stops: every sample is a live one
  }
  auto elapsed = std::chrono::steady_clock::now() - start;
  if (opt.drain_ms > 0) {
    // Drain experiment: stop the server FIRST, with the load still connected.
    // Stop() refuses new conns and keeps serving in-flight work up to the
    // drain budget; the stallers are what the budget has to give up on.
    auto drain_start = std::chrono::steady_clock::now();
    runtime.Stop();
    result.drain_window_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                  drain_start)
            .count();
    client.Stop();
  } else {
    client.Stop();
    runtime.Stop();
  }

  result.totals = runtime.Totals();
  result.metrics_json = obs::ToJson(runtime.metrics().Snapshot());
  result.topo.emplace(*runtime.topology());
  result.numa_bound_arenas = runtime.conn_pool()->numa_bound_cores();
  if (const obs::hwprof::HwProf* hw = runtime.hwprof(); hw != nullptr) {
    result.hw_available = hw->AvailableCores() > 0;
    result.hw_cycles = hw->EstimatedTotal(obs::hwprof::HwEvent::kCycles);
    result.hw_llc_misses = hw->EstimatedTotal(obs::hwprof::HwEvent::kLlcMisses);
    if (!result.hw_available) {
      result.hwprof_reason = hw->unavailable_reason(0);
    }
  }
  result.client_completed = client.completed();
  result.client_errors = client.errors();
  result.client_stalled_reaped = client.stalled_reaped();
  if (sampler != nullptr) {
    result.intervals = sampler->Samples();
    for (const obs::IntervalSample& s : result.intervals) {
      PrintIntervalLine(spec.label, s);
    }
  }
  double secs = std::chrono::duration<double>(elapsed).count();
  result.conns_per_sec = secs > 0 ? static_cast<double>(result.totals.served()) / secs : 0;
  result.p50_us = static_cast<double>(result.totals.queue_wait_ns.Median()) / 1e3;
  result.p90_us = static_cast<double>(result.totals.queue_wait_ns.Percentile(0.90)) / 1e3;
  result.p95_us = static_cast<double>(result.totals.queue_wait_ns.Percentile(0.95)) / 1e3;
  result.p99_us = static_cast<double>(result.totals.queue_wait_ns.Percentile(0.99)) / 1e3;
  if (opt.workload != svc::WorkloadKind::kAccept) {
    // Per-request latency is the CLIENT's view (write first byte -> last
    // response byte drained) -- the end-to-end number the paper's Table 1
    // reports, not just the server-side service time.
    result.client_requests = client.requests();
    result.client_refused = client.refused();
    result.client_timeouts = client.timeouts();
    result.requests_per_sec =
        secs > 0 ? static_cast<double>(result.client_requests) / secs : 0;
    Histogram req = client.RequestLatencyNs();
    if (req.count() > 0) {
      result.req_p50_us = static_cast<double>(req.Median()) / 1e3;
      result.req_p95_us = static_cast<double>(req.Percentile(0.95)) / 1e3;
      result.req_p99_us = static_cast<double>(req.Percentile(0.99)) / 1e3;
    }
    Histogram conn_lat = client.ConnectLatencyNs();
    if (conn_lat.count() > 0) {
      result.connect_p95_us = static_cast<double>(conn_lat.Percentile(0.95)) / 1e3;
    }
    Histogram refused_lat = client.RefusedConnectLatencyNs();
    if (refused_lat.count() > 0) {
      result.refused_connect_p95_us =
          static_cast<double>(refused_lat.Percentile(0.95)) / 1e3;
    }
  }
  // The server law, on every run: each accepted connection lands in
  // exactly one term of RtTotals::accounted(). A mismatch fails the run.
  result.ok = result.totals.accepted == result.totals.accounted();
  std::printf("    [%s] server law: accepted=%llu accounted=%llu (%s)\n", spec.label.c_str(),
              static_cast<unsigned long long>(result.totals.accepted),
              static_cast<unsigned long long>(result.totals.accounted()),
              result.ok ? "balanced" : "IMBALANCED");
  return result;
}

// Pulls the affinity row's conns_per_sec out of a committed
// BENCH_rt_loopback.json. A two-anchor scan ("mode":"affinity", then the
// next "conns_per_sec":) instead of a JSON parser: the file is our own
// writer's output, and the bench must not grow a parser dependency.
bool ReadBaselineAffinityRate(const std::string& path, double* rate) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    fprintf(stderr, "baseline: cannot read %s\n", path.c_str());
    return false;
  }
  std::string text;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);
  size_t mode_pos = text.find("\"mode\":\"affinity\"");
  if (mode_pos == std::string::npos) {
    fprintf(stderr, "baseline: no affinity row in %s\n", path.c_str());
    return false;
  }
  const char kKey[] = "\"conns_per_sec\":";
  size_t rate_pos = text.find(kKey, mode_pos);
  if (rate_pos == std::string::npos) {
    fprintf(stderr, "baseline: affinity row in %s has no conns_per_sec\n", path.c_str());
    return false;
  }
  *rate = atof(text.c_str() + rate_pos + sizeof(kKey) - 1);
  return *rate > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = ParseOptions(argc, argv);

  // Resolve --topo before any run: "flat" forces the topology-blind mode,
  // "script:<file>" loads a map once into a source that outlives every run
  // (each Runtime re-discovers from it at Start).
  std::unique_ptr<topo::ScriptedTopologySource> scripted_topo;
  if (opt.topo == "flat") {
    opt.topo_mode = topo::TopoMode::kFlat;
  } else if (opt.topo.compare(0, 7, "script:") == 0) {
    std::string path = opt.topo.substr(7);
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr) {
      fprintf(stderr, "--topo: cannot read %s\n", path.c_str());
      return 2;
    }
    std::string text;
    char buf[4096];
    size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      text.append(buf, n);
    }
    std::fclose(f);
    topo::TopoMap map;
    std::string error;
    if (!topo::ParseTopologyScript(text, &map, &error)) {
      fprintf(stderr, "--topo: %s: %s\n", path.c_str(), error.c_str());
      return 2;
    }
    scripted_topo.reset(new topo::ScriptedTopologySource(std::move(map)));
    opt.topo_source = scripted_topo.get();
  }

  PrintBanner("rt loopback: live SO_REUSEPORT accept on 127.0.0.1",
              "paper fig 2/3 shape on real sockets: per-core queues + stealing vs one "
              "shared accept queue");
  PrintKv("threads", std::to_string(opt.threads));
  PrintKv("client threads", std::to_string(opt.clients));
  PrintKv("duration", std::to_string(opt.duration_ms) + " ms per mode");
  PrintKv("pinning", opt.pin ? "on" : "off");
  PrintKv("steering", opt.steer);
  PrintKv("hwprof", opt.hwprof ? "on" : "off");
  PrintKv("topo", opt.topo);
  if (opt.sweep_policy != "rst") {
    PrintKv("overload policy", opt.sweep_policy);
  }
  PrintKv("workload", svc::WorkloadName(opt.workload));
  if (opt.workload != svc::WorkloadKind::kAccept) {
    PrintKv("requests/conn", std::to_string(opt.rpc));
    PrintKv("payload", std::to_string(opt.payload) + " B");
    if (opt.workload == svc::WorkloadKind::kStream) {
      PrintKv("stream response", std::to_string(opt.stream_chunks) + " x " +
                                     std::to_string(opt.stream_chunk) + " B chunks");
    }
  }
  if (opt.skew_groups > 0) {
    PrintKv("skew", std::to_string(opt.skew_groups) + " flow groups at core 0");
  }
  if (opt.chaos != "none") {
    PrintKv("chaos", opt.chaos + " on reactor " + std::to_string(opt.threads - 1) +
                         " (watchdog 50 ms)");
  }

  bool steer_on = opt.steer != "off";
  bool force_fallback = opt.steer == "fallback";

  if (opt.sweep > 0) {
    // Backpressure sweep: one affinity arrangement, stepped offered load.
    // Each step is a fresh runtime + a fresh client fleet k times the base
    // size; the ledger shows where goodput flattens and what the turned-away
    // clients experienced (refusal latency is the fail-fast half of the
    // paper's Section 3.3 argument -- shedding must be CHEAPER than serving).
    PrintKv("sweep", std::to_string(opt.sweep) + " offered-load steps (affinity, " +
                         opt.sweep_policy + " shedding)");
    TablePrinter table({"offered clients", "conns/sec", "goodput req/s", "req p95 us",
                        "refused", "timeouts", "connect p95 us", "refused p95 us"});
    std::vector<std::string> json_rows;
    bool sweep_ok = true;
    for (int step = 1; step <= opt.sweep; ++step) {
      Options step_opt = opt;
      step_opt.clients = opt.clients * step;
      RunSpec spec;
      spec.mode = RtMode::kAffinity;
      spec.label = "sweep-" + std::to_string(step_opt.clients);
      spec.steer = steer_on;
      spec.force_fallback = force_fallback;
      spec.migrate_interval_ms = steer_on ? 100 : 0;
      RunResult r = RunMode(spec, step_opt);
      if (!r.ok) {
        sweep_ok = false;
        continue;
      }
      table.AddRow({std::to_string(step_opt.clients),
                    TablePrinter::Num(r.conns_per_sec, 0),
                    TablePrinter::Num(r.requests_per_sec, 0),
                    TablePrinter::Num(r.req_p95_us, 1),
                    TablePrinter::Int(r.client_refused),
                    TablePrinter::Int(r.client_timeouts),
                    TablePrinter::Num(r.connect_p95_us, 1),
                    TablePrinter::Num(r.refused_connect_p95_us, 1)});
      json_rows.push_back(RowJson(spec.label, r, step_opt));
    }
    table.Print();
    if (!opt.json_path.empty()) {
      if (WriteBenchResultsJson(opt.json_path, "rt_loopback_sweep", opt.threads,
                                opt.clients, opt.duration_ms, json_rows)) {
        std::printf("\n  json results written to %s\n", opt.json_path.c_str());
      } else {
        sweep_ok = false;
      }
    }
    std::printf("\n  note: goodput flattening while offered load keeps climbing is the\n"
                "  backpressure working; 'refused p95' is how fast a turned-away client\n"
                "  found out (cheap shedding, the Section 3.3 fail-fast property).\n");
    return sweep_ok ? 0 : 1;
  }

  std::vector<RunSpec> specs;
  if (opt.skew_groups > 0) {
    // The Section 6.5 experiment: same skewed load twice -- short-term
    // stealing alone, then stealing + the 100 ms flow-group balancer.
    RunSpec steal_only;
    steal_only.label = "steal-only";
    steal_only.steer = true;
    steal_only.force_fallback = force_fallback;
    steal_only.migrate_interval_ms = 0;
    steal_only.skew_groups = opt.skew_groups;
    specs.push_back(steal_only);
    RunSpec migrate = steal_only;
    migrate.label = "migrate";
    migrate.migrate_interval_ms = 100;
    specs.push_back(migrate);
  } else {
    std::vector<RtMode> modes;
    if (opt.mode == "all") {
      modes = {RtMode::kStock, RtMode::kFine, RtMode::kAffinity};
    } else if (opt.mode == "stock") {
      modes = {RtMode::kStock};
    } else if (opt.mode == "fine") {
      modes = {RtMode::kFine};
    } else if (opt.mode == "affinity") {
      modes = {RtMode::kAffinity};
    } else {
      fprintf(stderr, "unknown --mode=%s\n", opt.mode.c_str());
      return 2;
    }
    for (RtMode mode : modes) {
      RunSpec spec;
      spec.mode = mode;
      spec.label = RtModeName(mode);
      spec.steer = steer_on && mode == RtMode::kAffinity;
      spec.force_fallback = force_fallback;
      spec.migrate_interval_ms = spec.steer ? 100 : 0;
      specs.push_back(spec);
    }
  }

  const bool rr = opt.workload != svc::WorkloadKind::kAccept;
  std::vector<std::string> headers = {"mode", "conns/sec"};
  if (rr) {
    headers.insert(headers.end(), {"req/s", "req p50 us", "req p95 us"});
  }
  headers.insert(headers.end(), {"p50 wait us", "p95 wait us", "p99 wait us", "local %",
                                 "locality %", "cyc/req", "LLCm/req", "steals", "migr",
                                 "drops", "client errs"});
  TablePrinter table(headers);
  bool all_ok = true;
  double stock_rate = 0;
  double affinity_rate = 0;
  double stock_req_rate = 0;
  double affinity_req_rate = 0;
  double affinity_req_p95_us = 0;
  RunSpec stock_spec;
  RunSpec affinity_spec;
  bool have_stock_spec = false;
  bool have_affinity_spec = false;
  double steal_only_remote_frac = -1;
  double migrate_remote_frac = -1;
  std::string live_steering;
  std::string hwprof_reason;
  std::vector<std::string> json_rows;
  for (const RunSpec& spec : specs) {
    RunResult r = RunMode(spec, opt);
    if (!r.ok) {
      all_ok = false;
      continue;
    }
    if (spec.mode == RtMode::kStock) {
      stock_rate = r.conns_per_sec;
      stock_req_rate = r.requests_per_sec;
      stock_spec = spec;
      have_stock_spec = true;
    }
    if (spec.mode == RtMode::kAffinity) {
      affinity_rate = r.conns_per_sec;
      affinity_req_rate = r.requests_per_sec;
      affinity_req_p95_us = r.req_p95_us;
      affinity_spec = spec;
      have_affinity_spec = true;
    }
    if (spec.label == "steal-only") steal_only_remote_frac = SteadyRemoteFrac(r);
    if (spec.label == "migrate") migrate_remote_frac = SteadyRemoteFrac(r);
    if (!r.kernel_steering.empty()) live_steering = r.kernel_steering;
    PrintTopoLine(spec.label, r);
    uint64_t served = r.totals.served();
    double local_pct =
        served > 0 ? 100.0 * static_cast<double>(r.totals.served_local) / static_cast<double>(served)
                   : 0;
    if (opt.chaos != "none") {
      // The failover ledger.
      std::printf("    [%s] chaos: injected=%llu failovers=%llu recoveries=%llu "
                  "group_moves=%llu shed=%llu\n",
                  spec.label.c_str(),
                  static_cast<unsigned long long>(r.totals.fault_injected),
                  static_cast<unsigned long long>(r.totals.failovers),
                  static_cast<unsigned long long>(r.totals.recoveries),
                  static_cast<unsigned long long>(r.totals.failover_group_moves),
                  static_cast<unsigned long long>(r.totals.admission_shed));
    }
    if (opt.timeout_ms > 0 || opt.drain_ms > 0) {
      // The lifecycle ledger: what the timer wheels reaped, what pool
      // pressure evicted, and how the drain budget split the held conns.
      std::printf("    [%s] lifecycle: hs=%llu idle=%llu read=%llu write=%llu "
                  "evict=%llu reaped=%llu drained=%llu aborted=%llu drain=%.1fms\n",
                  spec.label.c_str(),
                  static_cast<unsigned long long>(r.totals.timeouts_handshake),
                  static_cast<unsigned long long>(r.totals.timeouts_idle),
                  static_cast<unsigned long long>(r.totals.timeouts_read),
                  static_cast<unsigned long long>(r.totals.timeouts_write),
                  static_cast<unsigned long long>(r.totals.pool_evictions),
                  static_cast<unsigned long long>(r.client_stalled_reaped),
                  static_cast<unsigned long long>(r.totals.drained_gracefully),
                  static_cast<unsigned long long>(r.totals.aborted_at_stop),
                  r.drain_window_ms);
      if (opt.stall != "none" && r.client_stalled_reaped == 0) {
        // A stall run where nothing got reaped means the deadlines never
        // fired -- the whole point of the leg.
        std::printf("    [%s] lifecycle: NO stalled connections were reaped\n",
                    spec.label.c_str());
        all_ok = false;
      }
    }
    std::vector<std::string> cells = {spec.label, TablePrinter::Num(r.conns_per_sec, 0)};
    if (rr) {
      cells.push_back(TablePrinter::Num(r.requests_per_sec, 0));
      cells.push_back(TablePrinter::Num(r.req_p50_us, 1));
      cells.push_back(TablePrinter::Num(r.req_p95_us, 1));
    }
    cells.push_back(TablePrinter::Num(r.p50_us, 1));
    cells.push_back(TablePrinter::Num(r.p95_us, 1));
    cells.push_back(TablePrinter::Num(r.p99_us, 1));
    cells.push_back(TablePrinter::Num(local_pct, 1));
    cells.push_back(LocalityCell(r));
    cells.push_back(HwPerReqCell(r, r.hw_cycles, 0));
    cells.push_back(HwPerReqCell(r, r.hw_llc_misses, 2));
    cells.push_back(TablePrinter::Int(r.totals.steals));
    cells.push_back(TablePrinter::Int(r.totals.migrations));
    cells.push_back(TablePrinter::Int(r.totals.overflow_drops));
    cells.push_back(TablePrinter::Int(r.client_errors));
    table.AddRow(cells);
    if (!r.hwprof_reason.empty()) hwprof_reason = r.hwprof_reason;
    json_rows.push_back(RowJson(spec.label, r, opt));
  }
  table.Print();
  if (opt.hwprof && !hwprof_reason.empty()) {
    std::printf("\n  hwprof: hardware counters unavailable: %s\n", hwprof_reason.c_str());
  }
  if (!opt.json_path.empty()) {
    if (WriteBenchResultsJson(opt.json_path, "rt_loopback", opt.threads, opt.clients,
                              opt.duration_ms, json_rows)) {
      std::printf("\n  json results written to %s\n", opt.json_path.c_str());
    } else {
      all_ok = false;
    }
  }
  std::printf("\n  note: loopback collapses the paper's NIC/IRQ path; what remains is the\n"
              "  accept-queue arrangement itself. 'local %%' is the paper's connection\n"
              "  affinity; stock counts everything local because there is one queue.\n");
  if (!live_steering.empty()) {
    std::printf("  steering ran via: %s\n", live_steering.c_str());
  }
  if (opt.check) {
    if (opt.skew_groups > 0) {
      if (steal_only_remote_frac < 0 || migrate_remote_frac < 0) {
        fprintf(stderr, "check: need both the steal-only and migrate runs\n");
        return 1;
      }
      // The Section 6.5 claim on live sockets: the long-term balancer must
      // retire most of the remote service that stealing alone sustains
      // forever. The 0.7 factor absorbs the pre-convergence head of the
      // migrate run that leaks into its steady-state tail on slow hosts.
      std::printf("  check: steady-state remote-serve fraction: steal-only=%.3f migrate=%.3f "
                  "(must be < steal-only * 0.7)\n",
                  steal_only_remote_frac, migrate_remote_frac);
      if (migrate_remote_frac >= steal_only_remote_frac * 0.7) {
        return 1;
      }
    } else if (rr) {
      // Request/response workloads: the rate that matters is REQUESTS/sec
      // (connections are amortized over --rpc rounds), and the latency that
      // matters is the per-request p95 the client observed. Held connections
      // amplify scheduler noise on oversubscribed hosts (a descheduled
      // reactor stalls every conn pinned to its ring, which stock's shared
      // queue hides), so a failing ratio gets up to two fresh re-measures of
      // the stock/affinity pair and the gate takes the best attempt.
      if (stock_req_rate <= 0 || affinity_req_rate <= 0 || !have_stock_spec ||
          !have_affinity_spec) {
        fprintf(stderr, "check: need both stock and affinity runs (use --mode=all)\n");
        return 1;
      }
      // The 0.90 floor assumes the reactors (and the closed-loop clients
      // feeding them) actually run in parallel. On an oversubscribed host
      // the run measures the SCHEDULER, not the accept arrangement --
      // whichever reactor is descheduled wedges every conn in its epoll
      // either way, but stock's shared accept queue hides the stall while
      // per-core rings expose it -- so the floor drops to 0.70 there.
      unsigned hw = std::thread::hardware_concurrency();
      double floor =
          hw >= static_cast<unsigned>(2 * opt.threads) ? 0.90 : 0.70;
      double ratio = affinity_req_rate / stock_req_rate;
      std::printf("  check: affinity/stock requests/sec ratio = %.3f (floor %.2f, %u cpus); "
                  "affinity req p95 = %.1f us\n",
                  ratio, floor, hw, affinity_req_p95_us);
      for (int attempt = 0; ratio < floor && attempt < 3; ++attempt) {
        RunResult rs = RunMode(stock_spec, opt);
        RunResult ra = RunMode(affinity_spec, opt);
        if (!rs.ok || !ra.ok || rs.requests_per_sec <= 0) {
          break;
        }
        double retry = ra.requests_per_sec / rs.requests_per_sec;
        std::printf("  check: re-measure %d: ratio = %.3f\n", attempt + 1, retry);
        if (retry > ratio) {
          ratio = retry;
        }
      }
      if (ratio < floor) {
        return 1;
      }
    } else {
      if (stock_rate <= 0 || affinity_rate <= 0) {
        fprintf(stderr, "check: need both stock and affinity runs (use --mode=all)\n");
        return 1;
      }
      double ratio = affinity_rate / stock_rate;
      std::printf("  check: affinity/stock conns/sec ratio = %.3f (floor 0.90)\n", ratio);
      if (ratio < 0.90) {
        return 1;
      }
    }
  }
  if (!opt.baseline_path.empty()) {
    double baseline_rate = 0;
    if (!ReadBaselineAffinityRate(opt.baseline_path, &baseline_rate)) {
      return 1;
    }
    if (affinity_rate <= 0) {
      fprintf(stderr, "baseline: need an affinity run (use --mode=all or --mode=affinity)\n");
      return 1;
    }
    double ratio = affinity_rate / baseline_rate;
    std::printf("  baseline: affinity conns/sec %.0f vs committed %.0f -> ratio %.3f "
                "(floor 0.90)\n",
                affinity_rate, baseline_rate, ratio);
    if (ratio < 0.90) {
      return 1;
    }
  }
  return all_ok ? 0 : 1;
}
