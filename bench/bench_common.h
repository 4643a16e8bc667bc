// Shared configuration helpers for the paper-reproduction benches.
//
// Every bench prints the same rows/series its paper counterpart reports.
// Simulated windows are kept short (hundreds of milliseconds of simulated
// time) so the whole bench suite runs in minutes; the paper's effects are
// steady-state effects and appear at this scale.

#ifndef AFFINITY_BENCH_BENCH_COMMON_H_
#define AFFINITY_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <string>
#include <vector>

#include "src/core/affinity_accept.h"
#include "src/obs/json_writer.h"

namespace affinity {

// One row of a bench's machine-readable results (one mode / variant /
// configuration). `series_json` optionally carries a pre-rendered JSON
// array (e.g. the StatsSampler's per-interval time series).
struct BenchJsonRow {
  std::string mode;
  double conns_per_sec = 0;
  double p50_queue_wait_us = 0;
  double p90_queue_wait_us = 0;
  double p95_queue_wait_us = 0;
  double p99_queue_wait_us = 0;
  uint64_t served_local = 0;
  uint64_t served_remote = 0;
  uint64_t steals = 0;
  uint64_t overflow_drops = 0;
  uint64_t client_errors = 0;
  // Request/response workloads (svc handlers): per-request rate and
  // client-observed latency. Emitted only when has_requests is set, so the
  // legacy accept-workload rows -- and the committed baseline files parsed
  // by the two-anchor scan -- keep their exact shape.
  bool has_requests = false;
  std::string workload;
  double requests_per_sec = 0;
  double req_p50_us = 0;
  double req_p95_us = 0;
  double req_p99_us = 0;
  // Backpressure sweep rows: offered load vs what actually got through, and
  // how fast the refusals came back. Emitted only when is_sweep is set.
  bool is_sweep = false;
  int offered_clients = 0;
  uint64_t refused = 0;
  uint64_t timeouts = 0;
  double connect_p95_us = 0;
  double refused_connect_p95_us = 0;
  // Connection-locality ledger + hardware counters (src/obs/hwprof). Emitted
  // only when has_locality is set; appended after every pre-existing key so
  // the committed baselines' two-anchor scans keep working. locality_pct is
  // requests served on their accept core; the per-request hardware rates are
  // 0 when the PMU refused to open (then also hwprof_available=false) or
  // when that specific event was rejected (VMs without a PMU open the
  // software events but not cycles/LLC).
  bool has_locality = false;
  double locality_pct = 0;
  uint64_t conn_migrations = 0;
  bool hwprof_available = false;
  double cycles_per_req = 0;
  double llc_miss_per_req = 0;
  // Which overload policy the run sheds with ("rst" / "backlog"); emitted
  // when non-empty (the --sweep-policy arm labels).
  std::string overload_policy;
  // Hardware-topology block (src/topo): the resolved model plus the distance
  // splits of the locality ledger, steals, and failover parking. Emitted
  // only when has_topo is set -- appended after every pre-existing key, so
  // the committed baselines keep their exact shape.
  bool has_topo = false;
  std::string topo_origin;  // "sysfs" / "scripted" / "flat"
  int numa_nodes = 1;
  int llc_domains = 1;
  uint64_t req_same_llc = 0;
  uint64_t req_cross_llc = 0;
  uint64_t req_cross_node = 0;
  uint64_t steal_same_llc = 0;
  uint64_t steal_cross_llc = 0;
  uint64_t steal_cross_node = 0;
  uint64_t park_same_llc = 0;
  uint64_t park_cross_llc = 0;
  uint64_t park_cross_node = 0;
  // Connection-lifecycle ledger (timer-wheel reaper + graceful drain).
  // Emitted only when has_lifecycle is set -- appended after every
  // pre-existing key, so the committed baselines keep their exact shape.
  bool has_lifecycle = false;
  std::string stall_mode;  // "none" / "handshake" / "midrequest" / "midread"
  uint64_t timeouts_handshake = 0;
  uint64_t timeouts_idle = 0;
  uint64_t timeouts_read = 0;
  uint64_t timeouts_write = 0;
  uint64_t timeouts_lifetime = 0;
  uint64_t pool_evictions = 0;
  uint64_t stalled_reaped = 0;  // client-side mirror of the reaped stallers
  uint64_t drained_gracefully = 0;
  uint64_t aborted_at_stop = 0;
  int drain_deadline_ms = 0;  // configured budget (0 = immediate stop)
  double drain_ms = 0;        // measured drain-window duration
  std::string series_json;  // optional: rendered JSON array of intervals
};

// Writes `BENCH_<name>.json`-style results for the perf trajectory: one
// top-level object with the run configuration and one entry per row.
// Returns false (with a message on stderr) when the file cannot be written.
inline bool WriteBenchResultsJson(const std::string& path, const std::string& bench_name,
                                  int threads, int clients, int duration_ms,
                                  const std::vector<BenchJsonRow>& rows) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("bench").String(bench_name);
  w.Key("threads").Int(threads);
  w.Key("clients").Int(clients);
  w.Key("duration_ms").Int(duration_ms);
  w.Key("results").BeginArray();
  for (const BenchJsonRow& row : rows) {
    w.BeginObject();
    w.Key("mode").String(row.mode);
    w.Key("conns_per_sec").Double(row.conns_per_sec);
    w.Key("p50_queue_wait_us").Double(row.p50_queue_wait_us);
    w.Key("p90_queue_wait_us").Double(row.p90_queue_wait_us);
    w.Key("p95_queue_wait_us").Double(row.p95_queue_wait_us);
    w.Key("p99_queue_wait_us").Double(row.p99_queue_wait_us);
    w.Key("served_local").UInt(row.served_local);
    w.Key("served_remote").UInt(row.served_remote);
    w.Key("steals").UInt(row.steals);
    w.Key("overflow_drops").UInt(row.overflow_drops);
    w.Key("client_errors").UInt(row.client_errors);
    if (row.has_requests) {
      w.Key("workload").String(row.workload);
      w.Key("requests_per_sec").Double(row.requests_per_sec);
      w.Key("req_p50_us").Double(row.req_p50_us);
      w.Key("req_p95_us").Double(row.req_p95_us);
      w.Key("req_p99_us").Double(row.req_p99_us);
    }
    if (row.is_sweep) {
      w.Key("offered_clients").Int(row.offered_clients);
      w.Key("refused").UInt(row.refused);
      w.Key("timeouts").UInt(row.timeouts);
      w.Key("connect_p95_us").Double(row.connect_p95_us);
      w.Key("refused_connect_p95_us").Double(row.refused_connect_p95_us);
    }
    if (row.has_locality) {
      w.Key("locality_pct").Double(row.locality_pct);
      w.Key("conn_migrations").UInt(row.conn_migrations);
      w.Key("hwprof_available").Bool(row.hwprof_available);
      w.Key("cycles_per_req").Double(row.cycles_per_req);
      w.Key("llc_miss_per_req").Double(row.llc_miss_per_req);
    }
    if (!row.overload_policy.empty()) {
      w.Key("overload_policy").String(row.overload_policy);
    }
    if (row.has_topo) {
      w.Key("topo_origin").String(row.topo_origin);
      w.Key("numa_nodes").Int(row.numa_nodes);
      w.Key("llc_domains").Int(row.llc_domains);
      w.Key("req_same_llc").UInt(row.req_same_llc);
      w.Key("req_cross_llc").UInt(row.req_cross_llc);
      w.Key("req_cross_node").UInt(row.req_cross_node);
      w.Key("steal_same_llc").UInt(row.steal_same_llc);
      w.Key("steal_cross_llc").UInt(row.steal_cross_llc);
      w.Key("steal_cross_node").UInt(row.steal_cross_node);
      w.Key("park_same_llc").UInt(row.park_same_llc);
      w.Key("park_cross_llc").UInt(row.park_cross_llc);
      w.Key("park_cross_node").UInt(row.park_cross_node);
    }
    if (row.has_lifecycle) {
      w.Key("stall_mode").String(row.stall_mode);
      w.Key("timeouts_handshake").UInt(row.timeouts_handshake);
      w.Key("timeouts_idle").UInt(row.timeouts_idle);
      w.Key("timeouts_read").UInt(row.timeouts_read);
      w.Key("timeouts_write").UInt(row.timeouts_write);
      w.Key("timeouts_lifetime").UInt(row.timeouts_lifetime);
      w.Key("pool_evictions").UInt(row.pool_evictions);
      w.Key("stalled_reaped").UInt(row.stalled_reaped);
      w.Key("drained_gracefully").UInt(row.drained_gracefully);
      w.Key("aborted_at_stop").UInt(row.aborted_at_stop);
      w.Key("drain_deadline_ms").Int(row.drain_deadline_ms);
      w.Key("drain_ms").Double(row.drain_ms);
    }
    if (!row.series_json.empty()) {
      w.Key("intervals").Raw(row.series_json);
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(w.str().data(), 1, w.str().size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return true;
}

// Baseline experiment for the paper's main workload: Apache (worker, pinned)
// or lighttpd serving the SpecWeb-like mix, 6 requests/connection with 100 ms
// think time, closed-loop clients at saturation.
inline ExperimentConfig PaperConfig(AcceptVariant variant, ServerKind server, int cores,
                                    MachineSpec machine = Amd48()) {
  ExperimentConfig config;
  config.kernel.machine = machine;
  config.kernel.num_cores = cores;
  config.kernel.listen.variant = variant;
  // The Intel machine needs a second NIC port above 64 cores (Section 6.1).
  config.kernel.nic.num_ports = cores > 64 ? 2 : 1;
  config.server = server;
  config.warmup = MsToCycles(600);
  config.measure = MsToCycles(300);
  return config;
}

// Runs at the saturating load for the variant (Stock saturates and then
// convoys at much lower concurrency). Event-driven servers pay per-fd poll
// costs that grow with concurrency, so their knee sits far lower.
inline ExperimentResult RunSaturated(const ExperimentConfig& config) {
  std::vector<int> ladder = DefaultSessionLadder(config.kernel.listen.variant);
  if (config.server == ServerKind::kLighttpd &&
      config.kernel.listen.variant != AcceptVariant::kStock) {
    ladder = {100, 250, 500};
  }
  return MeasureSaturated(config, ladder);
}

// The per-core sweep used by Figures 2/3/5/6.
inline std::vector<int> CoreSweep(int max_cores) {
  std::vector<int> cores;
  for (int c : {1, 4, 8, 12, 24, 36, 48}) {
    if (c <= max_cores) {
      cores.push_back(c);
    }
  }
  if (cores.back() != max_cores) {
    cores.push_back(max_cores);
  }
  return cores;
}

// Sparser sweep for the (heavier) 80-core Intel runs.
inline std::vector<int> IntelCoreSweep() { return {1, 20, 40, 80}; }

inline const std::vector<AcceptVariant>& AllVariants() {
  static const std::vector<AcceptVariant> kVariants = {
      AcceptVariant::kStock, AcceptVariant::kFine, AcceptVariant::kAffinity};
  return kVariants;
}

}  // namespace affinity

#endif  // AFFINITY_BENCH_BENCH_COMMON_H_
