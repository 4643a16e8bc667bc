#include "src/rt/listener.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sched.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <thread>

namespace affinity {
namespace rt {

namespace {
std::string Errno(const char* what) {
  return std::string(what) + ": " + strerror(errno);
}
}  // namespace

int CreateListenSocket(uint16_t* port, int backlog, bool reuseport, std::string* error) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = Errno("socket");
    return -1;
  }
  int one = 1;
  if (setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) < 0) {
    *error = Errno("setsockopt(SO_REUSEADDR)");
    close(fd);
    return -1;
  }
  if (reuseport && setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) < 0) {
    *error = Errno("setsockopt(SO_REUSEPORT)");
    close(fd);
    return -1;
  }
  // Every accepted socket inherits TCP_NODELAY from its listener, so no
  // accept pays a setsockopt. A reply is one gather write, but a reply
  // longer than one segment ends in a small one, which Nagle would hold
  // until the client's delayed ACK (~40 ms).
  if (setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) < 0) {
    *error = Errno("setsockopt(TCP_NODELAY)");
    close(fd);
    return -1;
  }

  sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(*port);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    *error = Errno("bind");
    close(fd);
    return -1;
  }
  if (listen(fd, backlog) < 0) {
    *error = Errno("listen");
    close(fd);
    return -1;
  }
  if (*port == 0) {
    socklen_t len = sizeof(addr);
    if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
      *error = Errno("getsockname");
      close(fd);
      return -1;
    }
    *port = ntohs(addr.sin_port);
  }
  return fd;
}

bool PinCurrentThreadToCpu(int cpu) {
#ifdef __linux__
  unsigned ncpu = std::thread::hardware_concurrency();
  if (ncpu == 0) {
    return false;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(cpu) % ncpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

}  // namespace rt
}  // namespace affinity
