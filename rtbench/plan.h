// Which CPUs the reactors and the generator get. The two sets never
// overlap: a generator thread sharing a reactor's CPU would make the
// benchmark measure the scheduler instead of the program.

#ifndef RTBENCH_PLAN_H_
#define RTBENCH_PLAN_H_

#include <string>
#include <vector>

namespace rtbench {

struct CpuPlan {
  std::vector<int> reactor_cpus;  // 0..n-1, where rt::Runtime pins reactor i
  std::vector<int> gen_cpus;      // the rest; one generator thread each
};

// Splits the CPUs this process may use: n = nproc/2 reactors on CPUs
// 0..n-1, generator threads on the remaining ones. Refuses (false, *error
// set) with fewer than two CPUs or when CPUs 0..n-1 are not all usable.
bool PlanCpus(const std::vector<int>& allowed, CpuPlan* plan, std::string* error);

}  // namespace rtbench

#endif  // RTBENCH_PLAN_H_
