#include "rtbench/reference.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "rtbench/procfs.h"

namespace rtbench {

namespace {

bool SendAll(int fd, const char* data, size_t len) {
  while (len > 0) {
    ssize_t n = send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

int ListenOnLoopback(uint16_t* port) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return -1;
  }
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 || listen(fd, 16) != 0 ||
      getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    close(fd);
    return -1;
  }
  *port = ntohs(addr.sin_port);
  return fd;
}

}  // namespace

RefServer::RefServer(Workload w, const std::vector<int>& cpus)
    : workload_(w), head_(std::to_string(kStaticObjectBytes) + "\n"), tids_(cpus.size()) {
  for (int k = 0; k < kStaticObjects; ++k) {
    objects_.push_back(std::string(kStaticObjectBytes, static_cast<char>('a' + k % 26)));
  }
  for (size_t i = 0; i < cpus.size(); ++i) {
    uint16_t port = 0;
    int fd = ListenOnLoopback(&port);
    ok_ = ok_ && fd >= 0;
    listen_fds_.push_back(fd);
    ports_.push_back(port);
  }
  if (!ok_) {
    return;
  }
  for (size_t i = 0; i < cpus.size(); ++i) {
    threads_.emplace_back(&RefServer::ServeLoop, this, i, cpus[i]);
  }
  for (const std::atomic<pid_t>& tid : tids_) {
    while (tid.load() == 0) {
      std::this_thread::yield();
    }
  }
}

RefServer::~RefServer() {
  stop_.store(true);
  for (int fd : listen_fds_) {
    if (fd >= 0) {
      shutdown(fd, SHUT_RDWR);  // wakes a thread blocked in accept()
    }
  }
  for (std::thread& t : threads_) {
    t.join();
  }
  for (int fd : listen_fds_) {
    if (fd >= 0) {
      close(fd);
    }
  }
}

std::vector<pid_t> RefServer::tids() const {
  std::vector<pid_t> out;
  for (const std::atomic<pid_t>& tid : tids_) {
    out.push_back(tid.load());
  }
  return out;
}

void RefServer::ServeLoop(size_t i, int cpu) {
  PinThisThread({cpu});
  tids_[i].store(CurrentTid());
  while (!stop_.load()) {
    int fd = accept4(listen_fds_[i], nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      continue;  // EINTR or ECONNABORTED; after shutdown() the loop ends on stop_
    }
    if (workload_ != Workload::kAcceptChurn) {
      int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    ServeConn(fd);
    close(fd);
  }
}

void RefServer::ServeConn(int fd) {
  if (workload_ == Workload::kAcceptChurn) {
    SendAll(fd, "A", 1);
    return;
  }
  char req[256];
  char reply[16];
  size_t len = 0;
  int rounds = 0;
  for (;;) {
    ssize_t n = recv(fd, req + len, sizeof(req) - len, 0);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return;  // the client closed or reset
    }
    len += static_cast<size_t>(n);
    const char* nl = static_cast<const char*>(std::memchr(req, '\n', len));
    if (nl == nullptr) {
      if (len == sizeof(req)) {
        return;
      }
      continue;
    }
    size_t line = static_cast<size_t>(nl - req);
    len = 0;  // one request at a time: the protocol has no pipelining
    // Header, then payload, as two writes: the svc handlers reply the
    // same way, so both servers put the same segments on the wire and wake
    // the client the same number of times.
    if (workload_ == Workload::kEchoKeepalive) {
      int head = std::snprintf(reply, sizeof(reply), "%zu\n", line);
      if (!SendAll(fd, reply, static_cast<size_t>(head)) || !SendAll(fd, req, line)) {
        return;
      }
      if (++rounds == kEchoRoundsPerConn) {
        return;
      }
      continue;
    }
    int key = line > 3 && line < 8 && std::memcmp(req, "obj", 3) == 0 ? 0 : -1;
    for (size_t c = 3; key >= 0 && c < line; ++c) {
      key = req[c] >= '0' && req[c] <= '9' ? key * 10 + (req[c] - '0') : -1;
    }
    if (key < 0 || key >= kStaticObjects) {
      return;
    }
    const std::string& obj = objects_[static_cast<size_t>(key)];
    if (!SendAll(fd, head_.data(), head_.size()) || !SendAll(fd, obj.data(), obj.size())) {
      return;
    }
  }
}

}  // namespace rtbench
