// One benchmark run: repeated cold starts (set-up time), then rt::Runtime
// serving the benchmark's closed-loop generator over loopback for a timed
// window, then the ledger checks. With tracing, a second window follows on
// the same runtime with per-op spans kept, then the layer-call pass.

#ifndef RTBENCH_BENCH_H_
#define RTBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "rtbench/client.h"
#include "rtbench/layers.h"

namespace rtbench {

struct Options {
  Workload workload = Workload::kAcceptChurn;
  uint64_t seed = 1;
  double seconds = 20;  // length of the measured window
  bool trace = false;
  // Where the traced run writes its spans; empty skips them.
  std::string spans_dir;
};

struct Result {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // End-to-end metrics, or with Options::trace the per-layer ones.
  std::vector<Metric> metrics;
};

// Runs the benchmark, printing a human-readable report to stdout. Returns
// false with *error set when it refused to measure at all (too few CPUs, a
// runtime that does not start); a run that measured but failed a check
// returns true with result->correct false.
bool RunBenchmark(const Options& options, Result* result, std::string* error);

}  // namespace rtbench

#endif  // RTBENCH_BENCH_H_
