// rtbench: one benchmark run of one workload.
//
//   rtbench --workload accept_churn|echo_keepalive|web_static --seed N
//           --seconds S --trace 0|1 [--spans-dir DIR]
//
// Prints a human-readable report, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}
// -- the end-to-end metrics, or with --trace 1 the per-layer ones. Exits 0
// when every reply and ledger check passed, 1 when one failed (the JSON is
// still printed), 2 when it refused to run (no JSON).

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "rtbench/bench.h"

namespace {

std::string Number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "rtbench: %s\nusage: rtbench --workload accept_churn|echo_keepalive|web_static "
               "--seed N --seconds S --trace 0|1 [--spans-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  rtbench::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) {
      return Usage("missing value after a flag");
    }
    const char* value = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      have_workload = rtbench::ParseWorkload(value, &opt.workload);
      if (!have_workload) {
        return Usage("unknown workload");
      }
    } else if (std::strcmp(flag, "--seed") == 0) {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      opt.seconds = std::atof(value);
    } else if (std::strcmp(flag, "--trace") == 0) {
      opt.trace = std::strcmp(value, "1") == 0;
    } else if (std::strcmp(flag, "--spans-dir") == 0) {
      opt.spans_dir = value;
    } else {
      return Usage("unknown flag");
    }
  }
  if (!have_workload || !(opt.seconds > 0)) {
    return Usage("--workload and a positive --seconds are required");
  }

  rtbench::Result result;
  std::string error;
  if (!rtbench::RunBenchmark(opt, &result, &error)) {
    std::fprintf(stderr, "rtbench: refused: %s\n", error.c_str());
    return 2;
  }
  std::string json = "{\"correct\": " + std::string(result.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const rtbench::Metric& m = result.metrics[i];
    std::printf("%s = %s %s\n", m.name.c_str(), Number(m.value).c_str(), m.unit.c_str());
    json += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " + Number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return result.correct ? 0 : 1;
}
