// The layer-call pass: times each runtime building block's public
// functions in isolation, on the reactor CPUs after the runtime stopped.
// These are the per-layer costs the live run cannot separate without a PMU.

#ifndef RTBENCH_LAYERS_H_
#define RTBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "src/rt/runtime.h"

namespace rtbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// Runs every layer call. `reactor_cpus` hosts the measuring threads (one
// per CPU for the contended variants); `max_local_len` sizes the balance
// policy as the runtime does; `runtime` is the stopped runtime whose
// Totals() is timed. Appends one metric per call, in ns (obs.totals_us in
// us); *failure is set if a call returned something it must not.
void RunLayerPass(const std::vector<int>& reactor_cpus, int max_local_len,
                  const affinity::rt::Runtime& runtime, std::vector<Metric>* out,
                  std::string* failure);

}  // namespace rtbench

#endif  // RTBENCH_LAYERS_H_
