// Kernel accounting read from /proc. The benchmark measures the runtime
// from outside -- per-thread CPU, run-queue wait, context switches and read
// syscalls of the reactor threads -- so nothing under src/ needs a hook and
// no PMU is required.

#ifndef RTBENCH_PROCFS_H_
#define RTBENCH_PROCFS_H_

#include <sys/types.h>

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace rtbench {

// The fields of /proc/<pid>/task/<tid>/stat the benchmark uses.
struct TaskStat {
  std::string comm;
  uint64_t utime_ticks = 0;
  uint64_t stime_ticks = 0;
  int processor = -1;
};

// Parses one stat line. The comm field may itself hold spaces and ')', so
// it is everything between the first '(' and the LAST ')'.
bool ParseTaskStat(std::string_view text, TaskStat* out);

// Additive per-thread counters; a window's cost is the difference of two
// readings.
struct ThreadCounters {
  uint64_t cpu_ns = 0;   // schedstat: time on a CPU
  uint64_t runq_ns = 0;  // schedstat: time runnable but waiting for a CPU
  double user_us = 0;    // stat utime (tick resolution)
  double sys_us = 0;     // stat stime (tick resolution)
  uint64_t vol_switches = 0;
  uint64_t invol_switches = 0;
  uint64_t syscr = 0;  // io: read-family syscalls

  ThreadCounters& operator+=(const ThreadCounters& o);
  ThreadCounters operator-(const ThreadCounters& o) const;
};

// One thread at one instant: its counters plus where it may and did run.
struct ThreadSample {
  bool ok = false;
  ThreadCounters counters;
  int processor = -1;        // CPU it last ran on
  std::vector<int> allowed;  // its affinity mask
};

ThreadSample SampleThread(pid_t tid);
ThreadCounters SumCounters(const std::vector<ThreadSample>& samples);

// The thread ids of this process.
std::set<pid_t> ListTasks();
pid_t CurrentTid();

// The aggregate "cpu" line of /proc/stat, in ticks.
struct HostCpu {
  uint64_t total = 0;
  uint64_t steal = 0;
};
HostCpu ReadHostCpu();

// The TCP TIME_WAIT count of this network namespace (/proc/net/sockstat);
// -1 when unreadable.
long ReadTimeWait();

// IPv4 TCP sockets in TIME_WAIT (/proc/net/tcp) with one of `ports` at
// either end: the TIME_WAIT state a run's own connections left behind,
// whatever other programs in the namespace do.
long CountTimeWait(const std::set<uint16_t>& ports);

// The calling thread's affinity mask, ascending.
std::vector<int> AllowedCpus();
bool PinThisThread(const std::vector<int>& cpus);

// Peak resident set size of this process.
double PeakRssMib();

}  // namespace rtbench

#endif  // RTBENCH_PROCFS_H_
