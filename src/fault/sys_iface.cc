#include "src/fault/sys_iface.h"

#include <unistd.h>

namespace affinity {
namespace fault {

int SysIface::Accept4(int core, int sockfd, sockaddr* addr, socklen_t* addrlen, int flags) {
  (void)core;
  return accept4(sockfd, addr, addrlen, flags);
}

int SysIface::EpollWait(int core, int epfd, epoll_event* events, int maxevents, int timeout_ms) {
  (void)core;
  return epoll_wait(epfd, events, maxevents, timeout_ms);
}

int SysIface::Close(int core, int fd) {
  (void)core;
  return close(fd);
}

int SysIface::AttachFilter(int core, int sockfd, int level, int optname, const void* optval,
                           socklen_t optlen) {
  (void)core;
  return setsockopt(sockfd, level, optname, optval, optlen);
}

ssize_t SysIface::Read(int core, int fd, void* buf, size_t count) {
  (void)core;
  return read(fd, buf, count);
}

ssize_t SysIface::Write(int core, int fd, const iovec* iov, int iovcnt) {
  (void)core;
  // Every Write site is a socket. sendmsg rather than writev: MSG_NOSIGNAL
  // turns the peer-reset SIGPIPE into a plain EPIPE the handler state
  // machine can classify, and writev has no such flag.
  msghdr msg{};
  msg.msg_iov = const_cast<iovec*>(iov);
  msg.msg_iovlen = static_cast<size_t>(iovcnt);
  return sendmsg(fd, &msg, MSG_NOSIGNAL);
}

int SysIface::EpollCtl(int core, int epfd, int op, int fd, epoll_event* event) {
  (void)core;
  return epoll_ctl(epfd, op, fd, event);
}

int SysIface::Connect(int core, int sockfd, const sockaddr* addr, socklen_t addrlen) {
  (void)core;
  return connect(sockfd, addr, addrlen);
}

SysIface* DefaultSys() {
  static SysIface passthrough;
  return &passthrough;
}

}  // namespace fault
}  // namespace affinity
