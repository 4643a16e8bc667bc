// The benchmark's workloads and its own closed-loop load generator. The
// generator is deliberately not rt::LoadClient: a change under src/rt must
// not be able to move the instrument that judges it.
//
// Protocol (the svc handlers'): a request is one newline-terminated line; a
// reply is "<len>\n" and len payload bytes. The accept workload's reply is
// one 'A', then EOF. Every reply byte is checked against what the seeded
// request implies.

#ifndef RTBENCH_CLIENT_H_
#define RTBENCH_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/rt/runtime.h"

namespace rtbench {

enum class Workload : uint8_t { kAcceptChurn, kEchoKeepalive, kWebStatic };

const char* WorkloadName(Workload w);
bool ParseWorkload(std::string_view name, Workload* out);

// echo_keepalive: a connection carries 1,000 rounds (nginx's default
// keepalive_requests), far below the 65,536 at which svc::ConnState's
// uint16_t round counter wraps.
inline constexpr int kEchoRoundsPerConn = 1000;
inline constexpr int kEchoPayloadBytes = 63;  // plus '\n': a 64-byte request
// web_static: the paper's Section 6.2 shape.
inline constexpr int kStaticObjects = 64;
inline constexpr int kStaticObjectBytes = 4096;
inline constexpr int kStaticRequestsPerConn = 6;
// Deadlines far above any healthy latency: armed and cancelled on every
// phase change, never expected to fire.
inline constexpr int kStaticDeadlineMs = 10000;

// rt::Runtime in its default configuration (affinity mode, epoll) serving
// workload `w` on `reactors` reactor threads.
affinity::rt::RtConfig RuntimeConfig(Workload w, int reactors);

// Monotonic clock in ns.
int64_t NowNs();

// Steady-clock stamps of one op; 0 where the op had no such step. `start`
// and `end` are always set: the op's latency is end - start.
struct OpTimes {
  int64_t start = 0;          // the op's first syscall
  int64_t connect_begin = 0;  // this op opened the connection
  int64_t connect_end = 0;
  int64_t written = 0;     // request fully written
  int64_t first_byte = 0;  // first reply bytes read
  int64_t end = 0;         // last reply byte read and verified
  int64_t closed = 0;      // this op closed the connection
};

// One connection slot of the closed loop. Not thread-safe; one per
// generator thread.
class Client {
 public:
  // `seed` and `index` fix the inputs: echo payload bytes and static key
  // order are a function of them alone. `index` (mod 256) also picks the
  // client's source addresses.
  Client(Workload w, uint16_t port, uint64_t seed, int index);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Runs one op. For echo and static, a missing connection is opened first
  // and timed separately (connect_begin/connect_end, before `start`).
  // Returns false when a syscall failed, timed out, or a reply byte was
  // wrong; the connection is then reset.
  bool RunOp(OpTimes* t);

  // RST-closes the held connection, if any (SO_LINGER{1,0}: no TIME_WAIT
  // is left behind for the next run to inherit).
  void Close();

  // Why the first failed op failed; empty while none has.
  const std::string& error() const { return error_; }

 private:
  bool Connect(OpTimes* t);
  // Records the first failure, with errno when set; returns false.
  bool Fail(const char* what);
  bool ReadReply(const char* expect, size_t len, OpTimes* t);

  Workload workload_;
  uint16_t port_;
  uint32_t source_base_;  // 127.<index>.0.0: this client's source addresses
  int fd_ = -1;
  int ops_on_conn_ = 0;
  uint64_t next_ = 0;  // op sequence: picks the payload / key
  uint64_t conns_opened_ = 0;  // picks the next source address
  std::string error_;
  // Requests and their exact expected replies, built once from the seed.
  std::vector<std::string> requests_;
  std::vector<std::string> replies_;
  std::vector<char> buf_;
};

}  // namespace rtbench

#endif  // RTBENCH_CLIENT_H_
