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

// Writes `BENCH_<name>.json`-style results for the perf trajectory: one
// top-level object with the run configuration and one entry per row, each
// row an already-rendered JSON object (see obs::JsonWriter).
// Returns false (with a message on stderr) when the file cannot be written.
inline bool WriteBenchResultsJson(const std::string& path, const std::string& bench_name,
                                  int threads, int clients, int duration_ms,
                                  const std::vector<std::string>& rows) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("bench").String(bench_name);
  w.Key("threads").Int(threads);
  w.Key("clients").Int(clients);
  w.Key("duration_ms").Int(duration_ms);
  w.Key("results").BeginArray();
  for (const std::string& row : rows) {
    w.Raw(row);
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
