#include "rtbench/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ctime>
#include <numeric>

namespace rtbench {

namespace {

// splitmix64: a seeded, platform-independent input stream.
uint64_t Mix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// A reply to a request left unanswered for this long fails the op.
constexpr int kReplyTimeoutS = 2;

}  // namespace

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kAcceptChurn:
      return "accept_churn";
    case Workload::kEchoKeepalive:
      return "echo_keepalive";
    case Workload::kWebStatic:
      return "web_static";
  }
  return "?";
}

bool ParseWorkload(std::string_view name, Workload* out) {
  for (Workload w : {Workload::kAcceptChurn, Workload::kEchoKeepalive, Workload::kWebStatic}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

affinity::rt::RtConfig RuntimeConfig(Workload w, int reactors) {
  affinity::rt::RtConfig config;
  config.num_threads = reactors;
  switch (w) {
    case Workload::kAcceptChurn:
      config.workload = affinity::svc::WorkloadKind::kAccept;
      break;
    case Workload::kEchoKeepalive:
      config.workload = affinity::svc::WorkloadKind::kEcho;
      config.handler.echo_rounds = kEchoRoundsPerConn;
      break;
    case Workload::kWebStatic:
      config.workload = affinity::svc::WorkloadKind::kStatic;
      config.handler.num_objects = kStaticObjects;
      config.handler.object_bytes = kStaticObjectBytes;
      config.handshake_timeout_ms = kStaticDeadlineMs;
      config.idle_timeout_ms = kStaticDeadlineMs;
      config.read_timeout_ms = kStaticDeadlineMs;
      config.write_timeout_ms = kStaticDeadlineMs;
      break;
  }
  return config;
}

int64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

Client::Client(Workload w, uint16_t port, uint64_t seed, int index)
    : workload_(w),
      port_(port),
      source_base_(0x7F000000u | ((static_cast<uint32_t>(index) & 0xFFu) << 16)) {
  uint64_t state = seed ^ (0xa0761d6478bd642full * static_cast<uint64_t>(index + 1));
  switch (w) {
    case Workload::kAcceptChurn:
      requests_.push_back(std::string());
      replies_.push_back("A");
      break;
    case Workload::kEchoKeepalive: {
      static const char kAlphabet[] =
          "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_";
      for (int i = 0; i < 64; ++i) {
        std::string payload(kEchoPayloadBytes, ' ');
        for (char& c : payload) {
          c = kAlphabet[Mix(&state) % (sizeof(kAlphabet) - 1)];
        }
        requests_.push_back(payload + "\n");
        replies_.push_back(std::to_string(kEchoPayloadBytes) + "\n" + payload);
      }
      break;
    }
    case Workload::kWebStatic: {
      std::vector<int> keys(kStaticObjects);
      std::iota(keys.begin(), keys.end(), 0);
      for (size_t i = keys.size() - 1; i > 0; --i) {
        std::swap(keys[i], keys[Mix(&state) % (i + 1)]);
      }
      for (int k : keys) {
        requests_.push_back("obj" + std::to_string(k) + "\n");
        replies_.push_back(std::to_string(kStaticObjectBytes) + "\n" +
                           std::string(kStaticObjectBytes, static_cast<char>('a' + k % 26)));
      }
      break;
    }
  }
  buf_.resize(kStaticObjectBytes + 64);
}

Client::~Client() { Close(); }

bool Client::Connect(OpTimes* t) {
  t->connect_begin = NowNs();
  fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    return Fail("socket");
  }
  timeval tv{kReplyTimeoutS, 0};
  setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  if (workload_ != Workload::kAcceptChurn) {
    int nodelay = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
  }
  // Each connection leaves from its own loopback address (127.<index>.x.y,
  // cycling through 65,536 per client), each with its own ephemeral port
  // space, so no 4-tuple is reused within a run. With one source address,
  // connects were occasionally refused (ECONNREFUSED) under heavy host
  // steal, most likely by a half-open request of an earlier connection on
  // the same 4-tuple still held on the server side.
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(source_base_ | static_cast<uint32_t>(conns_opened_ & 0xFFFF));
  int one = 1;
  setsockopt(fd_, IPPROTO_IP, IP_BIND_ADDRESS_NO_PORT, &one, sizeof(one));
  if (bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Fail("bind");
    Close();
    return false;
  }
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port_);
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Fail("connect");
    Close();
    return false;
  }
  ++conns_opened_;
  ops_on_conn_ = 0;
  t->connect_end = NowNs();
  return true;
}

bool Client::ReadReply(const char* expect, size_t len, OpTimes* t) {
  size_t got = 0;
  while (got < len) {
    ssize_t n = recv(fd_, buf_.data() + got, len - got, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      // EOF, reset, or no reply within the timeout.
      if (n == 0) {
        errno = 0;
        return Fail("reply cut short by EOF");
      }
      return Fail("recv");
    }
    if (got == 0) {
      t->first_byte = NowNs();
    }
    got += static_cast<size_t>(n);
  }
  if (std::memcmp(buf_.data(), expect, len) != 0) {
    errno = 0;
    return Fail("reply bytes differ from the expected reply");
  }
  return true;
}

bool Client::RunOp(OpTimes* t) {
  if (workload_ == Workload::kAcceptChurn) {
    // One op is one connection: connect, read the 1-byte reply to EOF, close.
    t->start = NowNs();
    bool ok = Connect(t) && ReadReply("A", 1, t);
    ssize_t n = ok ? recv(fd_, buf_.data(), 1, 0) : 0;
    if (n != 0) {
      errno = n > 0 ? 0 : errno;
      ok = Fail("no EOF after the reply");
    }
    t->end = NowNs();
    Close();
    t->closed = NowNs();
    return ok;
  }
  if (fd_ < 0 && !Connect(t)) {
    return false;
  }
  const std::string& req = requests_[next_ % requests_.size()];
  const std::string& reply = replies_[next_ % replies_.size()];
  ++next_;
  t->start = NowNs();
  size_t sent = 0;
  while (sent < req.size()) {
    ssize_t n = send(fd_, req.data() + sent, req.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      Fail("send");
      Close();
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  t->written = NowNs();
  bool ok = ReadReply(reply.data(), reply.size(), t);
  t->end = NowNs();
  int per_conn =
      workload_ == Workload::kEchoKeepalive ? kEchoRoundsPerConn : kStaticRequestsPerConn;
  if (!ok || ++ops_on_conn_ == per_conn) {
    Close();
    t->closed = NowNs();
  }
  return ok;
}

bool Client::Fail(const char* what) {
  if (error_.empty()) {
    error_ = errno != 0 ? std::string(what) + ": " + std::strerror(errno) : what;
  }
  return false;
}

void Client::Close() {
  if (fd_ < 0) {
    return;
  }
  linger lg{1, 0};
  setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  close(fd_);
  fd_ = -1;
  ops_on_conn_ = 0;
}

}  // namespace rtbench
