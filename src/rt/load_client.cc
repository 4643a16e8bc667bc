#include "src/rt/load_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>

#include "src/rt/reactor.h"
#include "src/svc/conn_state.h"

namespace affinity {
namespace rt {

namespace {

// xorshift64*: cheap, per-thread jitter stream. Not for statistics -- only
// for desynchronizing backoff windows across client threads.
uint64_t NextRand(uint64_t* state) {
  uint64_t x = *state;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  *state = x;
  return x * 0x2545f4914f6cdd1dull;
}

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Scratch sizing: the largest request line the server accepts, plus header
// room. Stack arrays, so the steady-state request loop never allocates.
constexpr int kMaxPayload = static_cast<int>(svc::kReqBufBytes) - 8;

}  // namespace

LoadClient::LoadClient(const LoadClientConfig& config) : config_(config) {
  if (config_.num_threads < 1) {
    config_.num_threads = 1;
  }
  if (config_.connect_timeout_ms < 1) {
    config_.connect_timeout_ms = 1;
  }
  if (config_.requests_per_conn < 1) {
    config_.requests_per_conn = 1;
  }
  config_.payload_bytes = std::max(1, std::min(config_.payload_bytes, kMaxPayload));
  if (config_.num_keys < 1) {
    config_.num_keys = 1;
  }
  if (config_.sys == nullptr) {
    config_.sys = fault::DefaultSys();
  }
}

LoadClient::~LoadClient() { Stop(); }

void LoadClient::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  // Ledgers exist before any thread runs and survive until the next Start:
  // the reader merges them after Stop() without locking.
  ledgers_.clear();
  for (int i = 0; i < config_.num_threads; ++i) {
    ledgers_.emplace_back(new ThreadLedger);
  }
  for (int i = 0; i < config_.num_threads; ++i) {
    threads_.emplace_back([this, i] { RunThread(i); });
  }
}

void LoadClient::Stop() {
  if (!started_) {
    return;
  }
  stop_.store(true, std::memory_order_release);
  for (std::thread& t : threads_) {
    t.join();
  }
  threads_.clear();
  started_ = false;
}

void LoadClient::WaitForMaxConns() {
  while (config_.max_conns > 0 && !stop_.load(std::memory_order_acquire) &&
         completed_.load(std::memory_order_relaxed) < config_.max_conns) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Stop();
}

Histogram LoadClient::RequestLatencyNs() const {
  Histogram merged;
  for (const auto& ledger : ledgers_) {
    merged.Merge(ledger->request_ns);
  }
  return merged;
}

Histogram LoadClient::ConnectLatencyNs() const {
  Histogram merged;
  for (const auto& ledger : ledgers_) {
    merged.Merge(ledger->connect_ns);
  }
  return merged;
}

Histogram LoadClient::RefusedConnectLatencyNs() const {
  Histogram merged;
  for (const auto& ledger : ledgers_) {
    merged.Merge(ledger->refused_ns);
  }
  return merged;
}

void LoadClient::RunThread(int thread_index) {
  // This thread's round-robin slice of the deterministic source ports.
  // Disjoint slices mean two threads never race to bind the same port.
  std::vector<uint16_t> ports;
  for (size_t i = static_cast<size_t>(thread_index); i < config_.src_ports.size();
       i += static_cast<size_t>(config_.num_threads)) {
    ports.push_back(config_.src_ports[i]);
  }
  size_t cursor = 0;
  uint64_t rng = kBackoffJitterSeed + static_cast<uint64_t>(thread_index) * 0x9e3779b9ull + 1;
  int backoff_ms = 0;
  ThreadLedger* ledger = ledgers_[static_cast<size_t>(thread_index)].get();

  while (!stop_.load(std::memory_order_acquire)) {
    if (config_.max_conns > 0 &&
        completed_.load(std::memory_order_relaxed) >= config_.max_conns) {
      return;
    }
    uint16_t src_port = ports.empty() ? 0 : ports[cursor++ % ports.size()];
    ConnOutcome outcome = OneConnection(thread_index, src_port, ledger);
    // A lingering 4-tuple (e.g. the server closed first and our RST-close
    // raced it) makes this exact port transiently unbindable; the skew set
    // has several ports per flow group, so move on to the next one instead
    // of failing the run. One full lap of the slice without a bindable
    // port is a real error.
    size_t lap = 0;
    while (outcome == ConnOutcome::kPortInUse && !ports.empty() && ++lap < ports.size() &&
           !stop_.load(std::memory_order_acquire)) {
      src_port = ports[cursor++ % ports.size()];
      outcome = OneConnection(thread_index, src_port, ledger);
    }
    if (outcome == ConnOutcome::kOk || outcome == ConnOutcome::kStalledReaped) {
      // A reaped stall is the mode working as intended: reconnect and
      // stall again (the storm), no backoff.
      backoff_ms = 0;
      continue;
    }
    if (outcome == ConnOutcome::kRefused || outcome == ConnOutcome::kTimedOut) {
      // Capped exponential backoff with jitter: double the window up to the
      // cap, sleep a uniform draw from [window/2, window] so the client
      // threads spread out instead of re-hammering in lockstep.
      backoff_ms = backoff_ms == 0 ? kBackoffFirstMs : std::min(backoff_ms * 2, kBackoffCapMs);
      int low = backoff_ms / 2 < 1 ? 1 : backoff_ms / 2;
      int jittered =
          low + static_cast<int>(NextRand(&rng) % static_cast<uint64_t>(backoff_ms - low + 1));
      auto deadline =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(jittered);
      while (std::chrono::steady_clock::now() < deadline &&
             !stop_.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      continue;
    }
    // kError (or an exhausted port-busy lap): brief fixed pause so a wedged
    // server does not spin us at 100% CPU.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

int LoadClient::ConnectSocket(int thread_index, uint16_t src_port, ThreadLedger* ledger,
                              ConnOutcome* outcome) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *outcome = ConnOutcome::kError;
    return -1;
  }
  // Bound every blocking call so Stop() is honored within the timeout even
  // if the server stops serving while we are connected. SO_SNDTIMEO also
  // bounds the blocking connect itself.
  timeval tv;
  tv.tv_sec = config_.connect_timeout_ms / 1000;
  tv.tv_usec = (config_.connect_timeout_ms % 1000) * 1000;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  if (config_.stall == StallMode::kMidRead) {
    // Shrink the receive window BEFORE connect (the window is negotiated at
    // handshake) so a non-reading client jams the server's send after a few
    // KB instead of after the kernel's default multi-megabyte buffers.
    int rcvbuf = 1024;
    setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  }
  // Request lines are small; Nagle would batch them behind the previous
  // round's ACK and poison every latency sample with delayed-ACK waits.
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  if (src_port != 0) {
    setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in src;
    memset(&src, 0, sizeof(src));
    src.sin_family = AF_INET;
    src.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    src.sin_port = htons(src_port);
    if (bind(fd, reinterpret_cast<sockaddr*>(&src), sizeof(src)) < 0) {
      int bind_errno = errno;
      close(fd);
      *outcome = bind_errno == EADDRINUSE ? ConnOutcome::kPortInUse : ConnOutcome::kError;
      return -1;
    }
  }

  sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.port);

  uint64_t t0 = NowNs();
  if (config_.sys->Connect(thread_index, fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    int connect_errno = errno;
    close(fd);
    // A connect from a just-reused 4-tuple can also bounce off TIME_WAIT.
    if (src_port != 0 && connect_errno == EADDRNOTAVAIL) {
      *outcome = ConnOutcome::kPortInUse;
      return -1;
    }
    if (connect_errno == ECONNREFUSED) {
      // The refusal's own latency: how fast an overloaded/absent server
      // turns the client around (the Section 3.3 fail-fast property).
      ledger->refused_ns.Add(NowNs() - t0);
      *outcome = ConnOutcome::kRefused;
      return -1;
    }
    // A blocking connect bounded by SO_SNDTIMEO reports expiry as
    // EINPROGRESS/EWOULDBLOCK; ETIMEDOUT is the kernel's own handshake
    // timeout.
    if (connect_errno == ETIMEDOUT || connect_errno == EINPROGRESS ||
        connect_errno == EWOULDBLOCK || connect_errno == EAGAIN) {
      *outcome = ConnOutcome::kTimedOut;
      return -1;
    }
    *outcome = ConnOutcome::kError;
    return -1;
  }
  ledger->connect_ns.Add(NowNs() - t0);
  *outcome = ConnOutcome::kOk;
  return fd;
}

LoadClient::ConnOutcome LoadClient::WriteAll(int thread_index, int fd, const char* buf,
                                             int len) {
  // The socket is blocking with SO_SNDTIMEO, so a short or EAGAIN write
  // means the timeout expired.
  int off = 0;
  while (off < len) {
    iovec iov{const_cast<char*>(buf) + off, static_cast<size_t>(len - off)};
    ssize_t n = config_.sys->Write(thread_index, fd, &iov, 1);
    if (n > 0) {
      off += static_cast<int>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return n < 0 && (errno == EWOULDBLOCK || errno == EAGAIN) ? ConnOutcome::kTimedOut
                                                              : ConnOutcome::kError;
  }
  return ConnOutcome::kOk;
}

LoadClient::ConnOutcome LoadClient::RunRounds(int thread_index, int fd, ThreadLedger* ledger,
                                              int rounds) {
  char req[svc::kReqBufBytes];
  char resp[4096];
  fault::SysIface* sys = config_.sys;

  for (int round = 0; round < rounds; ++round) {
    if (stop_.load(std::memory_order_acquire)) {
      return ConnOutcome::kAbortedAtStop;
    }
    // Build the request line in place (no allocation): a fixed 'x' payload
    // for echo, a rotating "obj<k>" key for static content.
    int req_len;
    if (config_.workload == svc::WorkloadKind::kStatic) {
      uint64_t key = ledger->key_cursor++ % static_cast<uint64_t>(config_.num_keys);
      req_len = std::snprintf(req, sizeof(req), "obj%llu\n",
                              static_cast<unsigned long long>(key));
    } else {
      memset(req, 'x', static_cast<size_t>(config_.payload_bytes));
      req[config_.payload_bytes] = '\n';
      req_len = config_.payload_bytes + 1;
    }

    uint64_t t0 = NowNs();
    ConnOutcome sent = WriteAll(thread_index, fd, req, req_len);
    if (sent != ConnOutcome::kOk) {
      return sent;
    }

    // Read the framed response: a "<len>\n" decimal header, then len
    // payload bytes. Header bytes accumulate in resp; payload bytes are
    // counted and discarded (the ledger wants latency, not contents).
    uint32_t have = 0;
    uint32_t header_end = 0;  // index one past the header's newline; 0 = not found
    uint64_t payload_len = 0;
    uint64_t payload_got = 0;
    for (;;) {
      if (header_end == 0) {
        ssize_t n = sys->Read(thread_index, fd, resp + have, sizeof(resp) - have);
        if (n == 0) {
          return ConnOutcome::kError;  // EOF mid-response
        }
        if (n < 0) {
          if (errno == EINTR) {
            continue;
          }
          return errno == EWOULDBLOCK || errno == EAGAIN ? ConnOutcome::kTimedOut
                                                         : ConnOutcome::kError;
        }
        have += static_cast<uint32_t>(n);
        for (uint32_t i = 0; i < have; ++i) {
          if (resp[i] == '\n') {
            header_end = i + 1;
            break;
          }
        }
        if (header_end == 0) {
          if (have >= sizeof(resp)) {
            return ConnOutcome::kError;  // unframed garbage
          }
          continue;
        }
        payload_len = 0;
        for (uint32_t i = 0; i + 1 < header_end; ++i) {
          if (resp[i] < '0' || resp[i] > '9') {
            return ConnOutcome::kError;
          }
          payload_len = payload_len * 10 + static_cast<uint64_t>(resp[i] - '0');
        }
        payload_got = have - header_end;
      }
      if (payload_got >= payload_len) {
        break;
      }
      uint64_t want = payload_len - payload_got;
      size_t chunk = want < sizeof(resp) ? static_cast<size_t>(want) : sizeof(resp);
      ssize_t n = sys->Read(thread_index, fd, resp, chunk);
      if (n == 0) {
        return ConnOutcome::kError;
      }
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        return errno == EWOULDBLOCK || errno == EAGAIN ? ConnOutcome::kTimedOut
                                                       : ConnOutcome::kError;
      }
      payload_got += static_cast<uint64_t>(n);
    }

    ledger->request_ns.Add(NowNs() - t0);
    requests_.fetch_add(1, std::memory_order_relaxed);
  }
  return ConnOutcome::kOk;
}

LoadClient::ConnOutcome LoadClient::AwaitReap(int thread_index, int fd) {
  char buf[256];
  for (;;) {
    if (stop_.load(std::memory_order_acquire)) {
      return ConnOutcome::kAbortedAtStop;
    }
    ssize_t n = config_.sys->Read(thread_index, fd, buf, sizeof(buf));
    if (n == 0) {
      return ConnOutcome::kStalledReaped;  // FIN: the server gave up on us
    }
    if (n < 0) {
      if (errno == ECONNRESET) {
        return ConnOutcome::kStalledReaped;  // RST: the reaper's close
      }
      if (errno == EINTR || errno == EWOULDBLOCK || errno == EAGAIN) {
        continue;  // SO_RCVTIMEO tick; keep stalling until reaped or stopped
      }
      return ConnOutcome::kError;
    }
    // The server sent something (a response tail); drain and keep waiting.
  }
}

LoadClient::ConnOutcome LoadClient::AwaitReapNoRead(int fd) {
  // The receive window must STAY jammed, so no reads: watch for the reap's
  // error/hangup edge instead. A timeout RST surfaces as POLLERR; POLLRDHUP
  // (where available) catches an orderly FIN too.
  pollfd p;
  p.fd = fd;
#ifdef POLLRDHUP
  p.events = POLLRDHUP;
#else
  p.events = 0;
#endif
  for (;;) {
    if (stop_.load(std::memory_order_acquire)) {
      return ConnOutcome::kAbortedAtStop;
    }
    p.revents = 0;
    int r = poll(&p, 1, /*timeout_ms=*/10);
    if (r < 0) {
      if (errno == EINTR) {
        continue;
      }
      return ConnOutcome::kError;
    }
    if (r > 0 && (p.revents & (POLLERR | POLLHUP | p.events)) != 0) {
      return ConnOutcome::kStalledReaped;
    }
  }
}

LoadClient::ConnOutcome LoadClient::RunStalled(int thread_index, int fd, ThreadLedger* ledger) {
  switch (config_.stall) {
    case StallMode::kHandshake:
      // Connected, never sends a byte: the server's accept-to-first-byte
      // deadline is the only thing that can end this.
      return AwaitReap(thread_index, fd);
    case StallMode::kMidRequest: {
      // Behave for all but the last round (exercising per-request deadline
      // re-arming), then wedge the final request halfway through the line:
      // the server has bytes staged but no newline, pinning its read
      // deadline.
      if (config_.requests_per_conn > 1) {
        ConnOutcome warmup =
            RunRounds(thread_index, fd, ledger, config_.requests_per_conn - 1);
        if (warmup != ConnOutcome::kOk) {
          return warmup;
        }
      }
      char req[svc::kReqBufBytes];
      int half = std::max(1, config_.payload_bytes / 2);
      memset(req, 'x', static_cast<size_t>(half));
      ConnOutcome sent = WriteAll(thread_index, fd, req, half);
      return sent == ConnOutcome::kOk ? AwaitReap(thread_index, fd) : sent;
    }
    case StallMode::kMidRead: {
      // Send one full request, then never read the response. With the tiny
      // SO_RCVBUF negotiated at connect, a response bigger than a few KB
      // jams the server's send -- its write deadline is what fires. (Pair
      // with a stream/static workload whose response overflows the window;
      // a response that fits is flushed whole and the idle deadline reaps
      // us instead.)
      char req[svc::kReqBufBytes];
      memset(req, 'x', static_cast<size_t>(config_.payload_bytes));
      req[config_.payload_bytes] = '\n';
      ConnOutcome sent = WriteAll(thread_index, fd, req, config_.payload_bytes + 1);
      return sent == ConnOutcome::kOk ? AwaitReapNoRead(fd) : sent;
    }
    case StallMode::kNone:
      break;
  }
  return ConnOutcome::kError;
}

LoadClient::ConnOutcome LoadClient::OneConnection(int thread_index, uint16_t src_port,
                                                  ThreadLedger* ledger) {
  attempted_.fetch_add(1, std::memory_order_relaxed);
  auto fail = [this](ConnOutcome outcome) {
    switch (outcome) {
      case ConnOutcome::kPortInUse:
        port_busy_.fetch_add(1, std::memory_order_relaxed);
        break;
      case ConnOutcome::kRefused:
        refused_.fetch_add(1, std::memory_order_relaxed);
        break;
      case ConnOutcome::kTimedOut:
        timeouts_.fetch_add(1, std::memory_order_relaxed);
        break;
      case ConnOutcome::kAbortedAtStop:
        aborted_.fetch_add(1, std::memory_order_relaxed);
        break;
      case ConnOutcome::kStalledReaped:
        stalled_reaped_.fetch_add(1, std::memory_order_relaxed);
        break;
      case ConnOutcome::kError:
        errors_.fetch_add(1, std::memory_order_relaxed);
        break;
      case ConnOutcome::kOk:
        completed_.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    return outcome;
  };

  ConnOutcome outcome = ConnOutcome::kError;
  int fd = ConnectSocket(thread_index, src_port, ledger, &outcome);
  if (fd < 0) {
    return fail(outcome);
  }

  if (config_.stall != StallMode::kNone) {
    outcome = RunStalled(thread_index, fd, ledger);
    if (src_port != 0) {
      // Same RST-close as the workload path: the deterministic source port
      // must not linger in TIME_WAIT.
      linger lg{1, 0};
      setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    }
    close(fd);
    return fail(outcome);
  }

  if (config_.workload != svc::WorkloadKind::kAccept) {
    outcome = RunRounds(thread_index, fd, ledger, config_.requests_per_conn);
    if (src_port != 0) {
      // RST-close: a FIN would leave this exact 4-tuple in TIME_WAIT and the
      // next cycle's bind+connect to the same port would fail, but the port
      // IS the flow-group key, so we cannot substitute another one.
      linger lg{1, 0};
      setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    }
    close(fd);
    return fail(outcome);
  }

  // kAccept: read the one-byte response until orderly EOF.
  bool got_byte = false;
  char buf[16];
  for (;;) {
    ssize_t n = config_.sys->Read(thread_index, fd, buf, sizeof(buf));
    if (n > 0) {
      got_byte = true;
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    bool timed_out = n < 0 && (errno == EWOULDBLOCK || errno == EAGAIN);
    if (n == 0 || src_port != 0) {
      // RST-close. After the server's EOF the conversation is complete and
      // the server closed first: a FIN here would leave the server's side
      // in TIME_WAIT on the listen port, one socket per connection. And as
      // above, it keeps a deterministic source port reusable.
      linger lg{1, 0};
      setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    }
    close(fd);
    if (n == 0 && got_byte) {
      return fail(ConnOutcome::kOk);
    }
    return fail(timed_out ? ConnOutcome::kTimedOut : ConnOutcome::kError);
  }
}

}  // namespace rt
}  // namespace affinity
