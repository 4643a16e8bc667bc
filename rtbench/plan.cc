#include "rtbench/plan.h"

#include <algorithm>

namespace rtbench {

bool PlanCpus(const std::vector<int>& allowed, CpuPlan* plan, std::string* error) {
  int nproc = static_cast<int>(allowed.size());
  if (nproc < 2) {
    *error = "needs at least 2 usable CPUs, found " + std::to_string(nproc) +
             ": reactors and generator threads must not share a CPU";
    return false;
  }
  int reactors = nproc / 2;
  plan->reactor_cpus.clear();
  plan->gen_cpus.clear();
  for (int cpu = 0; cpu < reactors; ++cpu) {
    if (std::find(allowed.begin(), allowed.end(), cpu) == allowed.end()) {
      *error = "rt::Runtime pins reactor " + std::to_string(cpu) + " to CPU " +
               std::to_string(cpu) + ", which this process may not use";
      return false;
    }
    plan->reactor_cpus.push_back(cpu);
  }
  for (int cpu : allowed) {
    if (cpu >= reactors) {
      plan->gen_cpus.push_back(cpu);
    }
  }
  return true;
}

}  // namespace rtbench
