#include "src/io/io_backend.h"

#include <sys/epoll.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace affinity {
namespace io {

bool IoBackend::Init(std::string* error) {
  ep_ = epoll_create1(EPOLL_CLOEXEC);
  if (ep_ < 0) {
    if (error != nullptr) {
      *error = std::string("epoll_create1: ") + std::strerror(errno);
    }
    return false;
  }
  return true;
}

void IoBackend::Shutdown() {
  if (ep_ >= 0) {
    close(ep_);
    ep_ = -1;
  }
}

bool IoBackend::WatchListen(int fd) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = MakeListenToken(fd);
  return epoll_ctl(ep_, EPOLL_CTL_ADD, fd, &ev) == 0;
}

void IoBackend::UnwatchListen(int fd) { epoll_ctl(ep_, EPOLL_CTL_DEL, fd, nullptr); }

bool IoBackend::WatchDoorbell(int fd) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kDoorbellToken;
  return epoll_ctl(ep_, EPOLL_CTL_ADD, fd, &ev) == 0;
}

bool IoBackend::ArmConn(int fd, uint32_t events, uint64_t token, bool first) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = token;
  int op = first ? EPOLL_CTL_ADD : EPOLL_CTL_MOD;
  return sys_->EpollCtl(core_, ep_, op, fd, &ev) == 0;
}

int IoBackend::Wait(IoEvent* out, int max_events, int timeout_ms) {
  epoll_event events[64];
  if (max_events > 64) {
    max_events = 64;
  }
  int n = sys_->EpollWait(core_, ep_, events, max_events, timeout_ms);
  if (n == fault::SysIface::kKillReactor) {
    return n;
  }
  if (n < 0) {
    return errno == EINTR ? 0 : -1;
  }
  for (int i = 0; i < n; ++i) {
    out[i].token = events[i].data.u64;
    out[i].events = events[i].events;
  }
  return n;
}

std::unique_ptr<IoBackend> CreateIoBackend(IoBackendKind kind, int core, fault::SysIface* sys) {
  (void)kind;
  return std::make_unique<IoBackend>(core, sys);
}

}  // namespace io
}  // namespace affinity
