#include "rtbench/procfs.h"

#include <dirent.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace rtbench {

namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return std::string();
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string TaskPath(pid_t tid, const char* leaf) {
  return "/proc/self/task/" + std::to_string(tid) + "/" + leaf;
}

// The number after `key` in text laid out as "key value" pairs.
bool FindField(const std::string& text, const char* key, uint64_t* out) {
  size_t pos = text.find(key);
  if (pos == std::string::npos) {
    return false;
  }
  const char* p = text.c_str() + pos + std::strlen(key);
  char* end = nullptr;
  unsigned long long v = std::strtoull(p, &end, 10);
  if (end == p) {
    return false;
  }
  *out = v;
  return true;
}

double TickUs() {
  static const double us = 1e6 / static_cast<double>(sysconf(_SC_CLK_TCK));
  return us;
}

}  // namespace

bool ParseTaskStat(std::string_view text, TaskStat* out) {
  size_t open = text.find('(');
  size_t close = text.rfind(')');
  if (open == std::string_view::npos || close == std::string_view::npos || close < open) {
    return false;
  }
  out->comm = std::string(text.substr(open + 1, close - open - 1));
  // Fields after the comm, numbered from 3 (state) as in proc(5).
  std::vector<std::string_view> fields;
  size_t pos = close + 1;
  while (pos < text.size()) {
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\n')) {
      ++pos;
    }
    size_t start = pos;
    while (pos < text.size() && text[pos] != ' ' && text[pos] != '\n') {
      ++pos;
    }
    if (pos > start) {
      fields.push_back(text.substr(start, pos - start));
    }
  }
  constexpr size_t kUtime = 14 - 3, kStime = 15 - 3, kProcessor = 39 - 3;
  if (fields.size() <= kProcessor || fields[0].size() != 1) {
    return false;
  }
  out->utime_ticks = std::strtoull(std::string(fields[kUtime]).c_str(), nullptr, 10);
  out->stime_ticks = std::strtoull(std::string(fields[kStime]).c_str(), nullptr, 10);
  out->processor = std::atoi(std::string(fields[kProcessor]).c_str());
  return true;
}

ThreadCounters& ThreadCounters::operator+=(const ThreadCounters& o) {
  cpu_ns += o.cpu_ns;
  runq_ns += o.runq_ns;
  user_us += o.user_us;
  sys_us += o.sys_us;
  vol_switches += o.vol_switches;
  invol_switches += o.invol_switches;
  syscr += o.syscr;
  return *this;
}

ThreadCounters ThreadCounters::operator-(const ThreadCounters& o) const {
  ThreadCounters d;
  d.cpu_ns = cpu_ns - o.cpu_ns;
  d.runq_ns = runq_ns - o.runq_ns;
  d.user_us = user_us - o.user_us;
  d.sys_us = sys_us - o.sys_us;
  d.vol_switches = vol_switches - o.vol_switches;
  d.invol_switches = invol_switches - o.invol_switches;
  d.syscr = syscr - o.syscr;
  return d;
}

ThreadSample SampleThread(pid_t tid) {
  ThreadSample s;
  TaskStat st;
  std::string schedstat = ReadFile(TaskPath(tid, "schedstat"));
  unsigned long long cpu = 0, wait = 0;
  if (!ParseTaskStat(ReadFile(TaskPath(tid, "stat")), &st) ||
      std::sscanf(schedstat.c_str(), "%llu %llu", &cpu, &wait) != 2) {
    return s;
  }
  s.counters.cpu_ns = cpu;
  s.counters.runq_ns = wait;
  s.counters.user_us = static_cast<double>(st.utime_ticks) * TickUs();
  s.counters.sys_us = static_cast<double>(st.stime_ticks) * TickUs();
  std::string status = ReadFile(TaskPath(tid, "status"));
  FindField(status, "\nvoluntary_ctxt_switches:", &s.counters.vol_switches);
  FindField(status, "\nnonvoluntary_ctxt_switches:", &s.counters.invol_switches);
  FindField(ReadFile(TaskPath(tid, "io")), "syscr:", &s.counters.syscr);
  s.processor = st.processor;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(tid, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) {
        s.allowed.push_back(c);
      }
    }
  }
  s.ok = true;
  return s;
}

ThreadCounters SumCounters(const std::vector<ThreadSample>& samples) {
  ThreadCounters sum;
  for (const ThreadSample& s : samples) {
    sum += s.counters;
  }
  return sum;
}

std::set<pid_t> ListTasks() {
  std::set<pid_t> tids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) {
    return tids;
  }
  while (dirent* e = readdir(dir)) {
    if (e->d_name[0] != '.') {
      tids.insert(static_cast<pid_t>(std::atoi(e->d_name)));
    }
  }
  closedir(dir);
  return tids;
}

pid_t CurrentTid() { return static_cast<pid_t>(syscall(SYS_gettid)); }

HostCpu ReadHostCpu() {
  HostCpu h;
  std::string text = ReadFile("/proc/stat");
  unsigned long long v[8] = {};
  if (std::sscanf(text.c_str(), "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
                  &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) {
      h.total += x;
    }
    h.steal = v[7];
  }
  return h;
}

long ReadTimeWait() {
  std::string text = ReadFile("/proc/net/sockstat");
  size_t tcp = text.find("TCP:");
  uint64_t tw = 0;
  if (tcp == std::string::npos || !FindField(text.substr(tcp), " tw ", &tw)) {
    return -1;
  }
  return static_cast<long>(tw);
}

long CountTimeWait(const std::set<uint16_t>& ports) {
  std::istringstream table(ReadFile("/proc/net/tcp"));
  std::string line;
  std::getline(table, line);  // header
  long n = 0;
  while (std::getline(table, line)) {
    // "  sl  local_address rem_address   st ...", addresses as hex IP:port.
    unsigned local_port = 0, remote_port = 0, state = 0;
    constexpr unsigned kTimeWait = 0x06;
    if (std::sscanf(line.c_str(), " %*d: %*x:%x %*x:%x %x", &local_port, &remote_port, &state) ==
            3 &&
        state == kTimeWait &&
        (ports.count(static_cast<uint16_t>(local_port)) > 0 ||
         ports.count(static_cast<uint16_t>(remote_port)) > 0)) {
      ++n;
    }
  }
  return n;
}

std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) {
        cpus.push_back(c);
      }
    }
  }
  return cpus;
}

bool PinThisThread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) {
    CPU_SET(c, &set);
  }
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

double PeakRssMib() {
  rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace rtbench
