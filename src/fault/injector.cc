#include "src/fault/injector.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace affinity {
namespace fault {

namespace {

// SplitMix64 over (seed, site, core, call index): the per-call coin for
// probabilistic rules, independent of thread interleaving.
uint64_t MixHash(uint64_t seed, CallSite site, int core, uint64_t call_index) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (call_index + 1) +
               (static_cast<uint64_t>(site) << 32) + static_cast<uint64_t>(core + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

size_t SlotOf(CallSite site, int core, int num_cores) {
  return static_cast<size_t>(site) * static_cast<size_t>(num_cores) + static_cast<size_t>(core);
}

}  // namespace

const char* CallSiteName(CallSite site) {
  switch (site) {
    case CallSite::kAccept4:
      return "accept4";
    case CallSite::kEpollWait:
      return "epoll_wait";
    case CallSite::kClose:
      return "close";
    case CallSite::kAttachFilter:
      return "attach_filter";
    case CallSite::kRead:
      return "read";
    case CallSite::kWrite:
      return "write";
    case CallSite::kEpollCtl:
      return "epoll_ctl";
    case CallSite::kConnect:
      return "connect";
  }
  return "?";
}

FaultInjector::FaultInjector(const FaultPlan& plan, int num_cores, SysIface* real)
    : plan_(plan),
      num_cores_(num_cores < 1 ? 1 : num_cores),
      real_(real),
      calls_(new std::atomic<uint64_t>[kNumCallSites * static_cast<size_t>(num_cores_)]),
      injected_(new std::atomic<uint64_t>[kNumCallSites * static_cast<size_t>(num_cores_)]),
      killed_(new std::atomic<bool>[static_cast<size_t>(num_cores_)]) {
  for (size_t i = 0; i < kNumCallSites * static_cast<size_t>(num_cores_); ++i) {
    calls_[i].store(0, std::memory_order_relaxed);
    injected_[i].store(0, std::memory_order_relaxed);
  }
  for (int c = 0; c < num_cores_; ++c) {
    killed_[c].store(false, std::memory_order_relaxed);
  }
}

FaultInjector::~FaultInjector() = default;

const FaultRule* FaultInjector::Match(CallSite site, int core) {
  if (core < 0 || core >= num_cores_) {
    return nullptr;
  }
  uint64_t index =
      calls_[SlotOf(site, core, num_cores_)].fetch_add(1, std::memory_order_relaxed);
  for (const FaultRule& rule : plan_.rules) {
    if (rule.site != site || (rule.core != -1 && rule.core != core)) {
      continue;
    }
    if (index < rule.after_calls || index - rule.after_calls >= rule.count) {
      continue;
    }
    if (rule.probability < 1.0) {
      double coin = static_cast<double>(MixHash(plan_.seed, site, core, index) >> 11) *
                    (1.0 / 9007199254740992.0);  // uniform [0, 1)
      if (coin >= rule.probability) {
        continue;
      }
    }
    return &rule;
  }
  return nullptr;
}

void FaultInjector::NoteInjected(CallSite site, int core) {
  injected_[SlotOf(site, core, num_cores_)].fetch_add(1, std::memory_order_relaxed);
  if (on_inject_) {
    on_inject_(site, core);
  }
}

void FaultInjector::SleepFor(uint64_t duration_us) const {
  // 1 ms slices so a stalled reactor still honors Stop() promptly.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::microseconds(duration_us);
  while (std::chrono::steady_clock::now() < deadline) {
    if (stop_ != nullptr && stop_->load(std::memory_order_acquire)) {
      return;
    }
    auto remaining = deadline - std::chrono::steady_clock::now();
    auto slice = std::min<std::chrono::steady_clock::duration>(remaining,
                                                               std::chrono::milliseconds(1));
    if (slice.count() > 0) {
      std::this_thread::sleep_for(slice);
    }
  }
}

int FaultInjector::Accept4(int core, int sockfd, sockaddr* addr, socklen_t* addrlen, int flags) {
  const FaultRule* rule = Match(CallSite::kAccept4, core);
  if (rule != nullptr) {
    NoteInjected(CallSite::kAccept4, core);
    if (rule->action == FaultAction::kErrno) {
      errno = rule->err;
      return -1;
    }
    if (rule->action == FaultAction::kDelay || rule->action == FaultAction::kStall) {
      SleepFor(rule->duration_us);
    }
  }
  return real_->Accept4(core, sockfd, addr, addrlen, flags);
}

int FaultInjector::EpollWait(int core, int epfd, epoll_event* events, int maxevents,
                             int timeout_ms) {
  if (core >= 0 && core < num_cores_ && killed_[core].load(std::memory_order_relaxed)) {
    return kKillReactor;
  }
  const FaultRule* rule = Match(CallSite::kEpollWait, core);
  if (rule != nullptr) {
    NoteInjected(CallSite::kEpollWait, core);
    switch (rule->action) {
      case FaultAction::kErrno:
        errno = rule->err;
        return -1;
      case FaultAction::kDelay:
      case FaultAction::kStall:
        SleepFor(rule->duration_us);
        break;
      case FaultAction::kKill:
        killed_[core].store(true, std::memory_order_relaxed);
        return kKillReactor;
    }
  }
  return real_->EpollWait(core, epfd, events, maxevents, timeout_ms);
}

int FaultInjector::Close(int core, int fd) {
  const FaultRule* rule = Match(CallSite::kClose, core);
  if (rule == nullptr) {
    return real_->Close(core, fd);
  }
  NoteInjected(CallSite::kClose, core);
  if (rule->action == FaultAction::kDelay || rule->action == FaultAction::kStall) {
    SleepFor(rule->duration_us);
    return real_->Close(core, fd);
  }
  // kErrno: report the failure but still release the descriptor -- a chaos
  // run that leaked one fd per injection would turn into an EMFILE test of
  // its own.
  real_->Close(core, fd);
  errno = rule->err;
  return -1;
}

int FaultInjector::AttachFilter(int core, int sockfd, int level, int optname, const void* optval,
                                socklen_t optlen) {
  const FaultRule* rule = Match(CallSite::kAttachFilter, core);
  if (rule != nullptr) {
    NoteInjected(CallSite::kAttachFilter, core);
    if (rule->action == FaultAction::kErrno) {
      errno = rule->err;
      return -1;
    }
    if (rule->action == FaultAction::kDelay || rule->action == FaultAction::kStall) {
      SleepFor(rule->duration_us);
    }
  }
  return real_->AttachFilter(core, sockfd, level, optname, optval, optlen);
}

ssize_t FaultInjector::Read(int core, int fd, void* buf, size_t count) {
  const FaultRule* rule = Match(CallSite::kRead, core);
  if (rule != nullptr) {
    NoteInjected(CallSite::kRead, core);
    if (rule->action == FaultAction::kErrno) {
      errno = rule->err;
      return -1;
    }
    if (rule->action == FaultAction::kDelay || rule->action == FaultAction::kStall) {
      SleepFor(rule->duration_us);
    }
  }
  return real_->Read(core, fd, buf, count);
}

ssize_t FaultInjector::Write(int core, int fd, const iovec* iov, int iovcnt) {
  const FaultRule* rule = Match(CallSite::kWrite, core);
  if (rule != nullptr) {
    NoteInjected(CallSite::kWrite, core);
    if (rule->action == FaultAction::kErrno) {
      errno = rule->err;
      return -1;
    }
    if (rule->action == FaultAction::kDelay || rule->action == FaultAction::kStall) {
      SleepFor(rule->duration_us);
    }
  }
  return real_->Write(core, fd, iov, iovcnt);
}

int FaultInjector::EpollCtl(int core, int epfd, int op, int fd, epoll_event* event) {
  const FaultRule* rule = Match(CallSite::kEpollCtl, core);
  if (rule != nullptr) {
    NoteInjected(CallSite::kEpollCtl, core);
    if (rule->action == FaultAction::kErrno) {
      // Fail WITHOUT performing the arm: the reactor must dispose of the
      // connection instead of waiting on an event that can never fire.
      errno = rule->err;
      return -1;
    }
    if (rule->action == FaultAction::kDelay || rule->action == FaultAction::kStall) {
      SleepFor(rule->duration_us);
    }
  }
  return real_->EpollCtl(core, epfd, op, fd, event);
}

int FaultInjector::Connect(int core, int sockfd, const sockaddr* addr, socklen_t addrlen) {
  const FaultRule* rule = Match(CallSite::kConnect, core);
  if (rule != nullptr) {
    NoteInjected(CallSite::kConnect, core);
    if (rule->action == FaultAction::kErrno) {
      errno = rule->err;
      return -1;
    }
    if (rule->action == FaultAction::kDelay || rule->action == FaultAction::kStall) {
      SleepFor(rule->duration_us);
    }
  }
  return real_->Connect(core, sockfd, addr, addrlen);
}

InjectorStats FaultInjector::Stats() const {
  InjectorStats stats;
  for (int site = 0; site < kNumCallSites; ++site) {
    for (int core = 0; core < num_cores_; ++core) {
      stats.injected[site] +=
          injected_[SlotOf(static_cast<CallSite>(site), core, num_cores_)].load(
              std::memory_order_relaxed);
    }
  }
  return stats;
}

uint64_t FaultInjector::calls(CallSite site, int core) const {
  if (core < 0 || core >= num_cores_) {
    return 0;
  }
  return calls_[SlotOf(site, core, num_cores_)].load(std::memory_order_relaxed);
}

}  // namespace fault
}  // namespace affinity
