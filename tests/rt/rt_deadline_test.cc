// Connection-lifecycle deadline tests: per-reactor timer wheels under a
// ScriptedClock (every timeout class staged and fired exactly once),
// slowloris storms that must not exhaust the conn pool, pool-pressure
// eviction, graceful drain, and the ValidateRtConfig rejections for
// contradictory lifecycle knobs. The scripted-clock tests are the
// determinism proof: time moves only when the test says so, so a
// deadline firing is a statement about the wheel, not about scheduler luck.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <functional>
#include <string>
#include <thread>

#include "src/rt/load_client.h"
#include "src/rt/runtime.h"
#include "src/svc/conn_handler.h"
#include "src/time/clock.h"

namespace affinity {
namespace rt {
namespace {

constexpr uint64_t Ms(uint64_t ms) { return ms * 1'000'000ull; }

// Polls `cond` until it holds or `timeout` passes; TSan hosts are slow, so
// every wait in this file is a deadline poll, never a fixed sleep.
bool WaitFor(const std::function<bool()>& cond, std::chrono::milliseconds timeout) {
  auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return cond();
}

// A raw blocking loopback connection with a 5 s read bound, so a test that
// expects a reap fails loudly instead of wedging. `rcvbuf` > 0 shrinks the
// receive window BEFORE connect (the window is negotiated at handshake) --
// the lever that jams the server's write path for the write-deadline test.
int ConnectTcp(uint16_t port, int rcvbuf = 0) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  if (rcvbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  timeval tv;
  tv.tv_sec = 5;
  tv.tv_usec = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

bool SendAll(int fd, const char* buf, size_t len) {
  size_t off = 0;
  while (off < len) {
    ssize_t n = ::write(fd, buf + off, len - off);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return false;
  }
  return true;
}

// One echo round with the runtime's framing: "x"*payload + '\n' out,
// "<len>\n<payload>" back.
bool EchoRound(int fd, int payload_bytes = 16) {
  char req[256];
  std::memset(req, 'x', static_cast<size_t>(payload_bytes));
  req[payload_bytes] = '\n';
  if (!SendAll(fd, req, static_cast<size_t>(payload_bytes) + 1)) {
    return false;
  }
  char resp[512];
  uint32_t have = 0;
  uint32_t header_end = 0;
  uint64_t payload_len = 0;
  uint64_t payload_got = 0;
  for (;;) {
    if (header_end == 0) {
      ssize_t n = ::read(fd, resp + have, sizeof(resp) - have);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) {
          continue;
        }
        return false;
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
          return false;
        }
        continue;
      }
      for (uint32_t i = 0; i + 1 < header_end; ++i) {
        if (resp[i] < '0' || resp[i] > '9') {
          return false;
        }
        payload_len = payload_len * 10 + static_cast<uint64_t>(resp[i] - '0');
      }
      payload_got = have - header_end;
    }
    if (payload_got >= payload_len) {
      return true;
    }
    uint64_t want = payload_len - payload_got;
    size_t chunk = want < sizeof(resp) ? static_cast<size_t>(want) : sizeof(resp);
    ssize_t n = ::read(fd, resp, chunk);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return false;
    }
    payload_got += static_cast<uint64_t>(n);
  }
}

// True once the peer tore the connection down (EOF or RST); false if the
// 5 s read bound expired with the connection still alive.
bool ReadUntilPeerClose(int fd) {
  char buf[4096];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n == 0) {
      return true;
    }
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return errno == ECONNRESET;
    }
  }
}

// ---------------------------------------------------------------------------
// Scripted clock: every deadline class staged once, fired exactly once.
// ---------------------------------------------------------------------------

// Three connections, three deliberate lifecycle stalls, one scripted clock.
// Handshake (connect, send nothing), read (half a request line), idle (one
// completed round, then silence) fire off a single 100 ms jump.
TEST(RtDeadlineTest, StagedStallsFireEachClassExactlyOnceScripted) {
  timer::ScriptedClock clock;
  RtConfig config;
  config.mode = RtMode::kAffinity;
  config.num_threads = 2;
  config.workload = svc::WorkloadKind::kEcho;
  config.clock = &clock;
  config.handshake_timeout_ms = 50;
  config.read_timeout_ms = 60;
  config.idle_timeout_ms = 70;
  Runtime runtime(config);
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;

  int stall_handshake = ConnectTcp(runtime.port());
  int stall_read = ConnectTcp(runtime.port());
  int go_idle = ConnectTcp(runtime.port());
  ASSERT_GE(stall_handshake, 0);
  ASSERT_GE(stall_read, 0);
  ASSERT_GE(go_idle, 0);
  ASSERT_TRUE(SendAll(stall_read, "xxxx", 4));  // half a line: no newline
  ASSERT_TRUE(EchoRound(go_idle));              // full round, then silence

  ASSERT_TRUE(WaitFor([&] { return runtime.Totals().open_conns == 3; },
                      std::chrono::seconds(10)));
  // The reactors arm the phase deadline inside the same dispatch that
  // opened the conn; this real-time pause only lets that dispatch finish.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // Nothing may fire while the scripted clock stands still...
  RtTotals quiet = runtime.Totals();
  EXPECT_EQ(quiet.timed_out(), 0u);

  // ...then one 100 ms jump carries all three staged phase deadlines
  // (50/60/70 ms) past due.
  clock.Advance(Ms(100));
  EXPECT_TRUE(WaitFor(
      [&] {
        RtTotals t = runtime.Totals();
        return t.timeouts_handshake == 1 && t.timeouts_read == 1 && t.timeouts_idle == 1;
      },
      std::chrono::seconds(10)))
      << "staged phase deadlines did not fire";
  EXPECT_TRUE(ReadUntilPeerClose(stall_handshake));
  EXPECT_TRUE(ReadUntilPeerClose(stall_read));
  EXPECT_TRUE(ReadUntilPeerClose(go_idle));
  ::close(stall_handshake);
  ::close(stall_read);
  ::close(go_idle);

  runtime.Stop();
  RtTotals totals = runtime.Totals();
  EXPECT_EQ(totals.timeouts_handshake, 1u);
  EXPECT_EQ(totals.timeouts_read, 1u);
  EXPECT_EQ(totals.timeouts_idle, 1u);
  EXPECT_EQ(totals.timeouts_write, 0u);
  EXPECT_EQ(totals.accepted, 3u);
  EXPECT_EQ(totals.accepted, totals.accounted());
  ASSERT_NE(runtime.conn_pool(), nullptr);
  EXPECT_EQ(runtime.conn_pool()->live_objects(), 0u);
}

// The write deadline needs a peer that jams its receive window: a 1 KiB
// SO_RCVBUF against a 256 KiB streamed response parks the server on
// kWantWrite, and only the scripted clock decides when that park expires.
TEST(RtDeadlineTest, JammedReceiverFiresWriteDeadlineScripted) {
  timer::ScriptedClock clock;
  RtConfig config;
  config.mode = RtMode::kAffinity;
  config.num_threads = 2;
  config.workload = svc::WorkloadKind::kStream;
  // The response must overrun the kernel's send-buffer autotune ceiling
  // (tcp_wmem[2], typically 4-6 MiB) or the write path never parks: 16 MiB
  // of a single reused 1 KiB chunk guarantees the kWantWrite park that
  // arms the write deadline.
  config.handler.stream_chunk_bytes = 1024;
  config.handler.stream_chunks = 16384;
  config.clock = &clock;
  config.write_timeout_ms = 80;
  Runtime runtime(config);
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;

  int fd = ConnectTcp(runtime.port(), /*rcvbuf=*/1024);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd, "go\n", 3));  // any line gets the stream
  ASSERT_TRUE(WaitFor([&] { return runtime.Totals().open_conns == 1; },
                      std::chrono::seconds(10)));
  // Let the server fill both socket buffers and park on kWantWrite.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(runtime.Totals().timed_out(), 0u);

  clock.Advance(Ms(100));
  EXPECT_TRUE(WaitFor([&] { return runtime.Totals().timeouts_write == 1; },
                      std::chrono::seconds(10)))
      << "write deadline did not fire against a jammed receiver";
  EXPECT_TRUE(ReadUntilPeerClose(fd));
  ::close(fd);

  runtime.Stop();
  RtTotals totals = runtime.Totals();
  EXPECT_EQ(totals.timeouts_write, 1u);
  EXPECT_EQ(totals.timed_out(), 1u);
  EXPECT_EQ(totals.accepted, 1u);
  EXPECT_EQ(totals.accepted, totals.accounted());
}

// ---------------------------------------------------------------------------
// Slowloris storm and pool-pressure eviction (real clock).
// ---------------------------------------------------------------------------

// 64 concurrent handshake-stallers against short deadlines: every staller
// gets reaped (client-side mirror: stalled_reaped), the handshake class
// accounts them, and well-behaved echo traffic keeps completing underneath
// the storm the whole time.
TEST(RtDeadlineTest, SlowlorisStormIsReapedWhileServiceContinues) {
  RtConfig config;
  config.mode = RtMode::kAffinity;
  config.num_threads = 4;
  config.workload = svc::WorkloadKind::kEcho;
  config.handshake_timeout_ms = 40;
  config.idle_timeout_ms = 80;
  config.read_timeout_ms = 80;
  config.write_timeout_ms = 80;
  Runtime runtime(config);
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;

  LoadClientConfig storm_config;
  storm_config.port = runtime.port();
  storm_config.num_threads = 64;
  storm_config.stall = StallMode::kHandshake;
  storm_config.connect_timeout_ms = 3000;
  storm_config.workload = svc::WorkloadKind::kEcho;
  LoadClient storm(storm_config);
  storm.Start();

  LoadClientConfig good_config;
  good_config.port = runtime.port();
  good_config.num_threads = 4;
  good_config.workload = svc::WorkloadKind::kEcho;
  good_config.requests_per_conn = 4;
  LoadClient good(good_config);
  good.Start();

  // >= 64 stalled connections reaped by the handshake deadline...
  EXPECT_TRUE(WaitFor([&] { return runtime.Totals().timeouts_handshake >= 64; },
                      std::chrono::seconds(30)))
      << "handshake reaper fell behind the storm";
  EXPECT_TRUE(WaitFor([&] { return storm.stalled_reaped() >= 64; },
                      std::chrono::seconds(30)));
  // ...while the storm never starves the well-behaved traffic.
  uint64_t before = good.completed();
  EXPECT_TRUE(WaitFor([&] { return good.completed() >= before + 50; },
                      std::chrono::seconds(30)))
      << "good traffic starved under the slowloris storm";

  storm.Stop();
  good.Stop();
  runtime.Stop();

  RtTotals totals = runtime.Totals();
  EXPECT_GE(totals.timeouts_handshake, 64u);
  EXPECT_EQ(totals.accepted, totals.accounted());
  ASSERT_NE(runtime.conn_pool(), nullptr);
  EXPECT_EQ(runtime.conn_pool()->live_objects(), 0u);
  EXPECT_EQ(storm.attempted(), storm.accounted());
  EXPECT_EQ(good.attempted(), good.accounted());
}

// Every timeout DISABLED and the pool deliberately tiny: holders can only
// leave by pool-pressure eviction. New work must displace the oldest idle
// conns instead of being shed -- the eviction backstop, isolated from the
// deadline reaper.
TEST(RtDeadlineTest, PoolPressureEvictsOldestIdleInsteadOfStarving) {
  RtConfig config;
  config.mode = RtMode::kAffinity;
  config.num_threads = 2;
  config.workload = svc::WorkloadKind::kEcho;
  config.pool_blocks_per_core = 8;  // 16 conns total against 24 holders
  Runtime runtime(config);
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;

  LoadClientConfig storm_config;
  storm_config.port = runtime.port();
  storm_config.num_threads = 24;
  storm_config.stall = StallMode::kHandshake;
  storm_config.connect_timeout_ms = 10'000;
  storm_config.workload = svc::WorkloadKind::kEcho;
  LoadClient storm(storm_config);
  storm.Start();

  LoadClientConfig good_config;
  good_config.port = runtime.port();
  good_config.num_threads = 2;
  good_config.workload = svc::WorkloadKind::kEcho;
  good_config.requests_per_conn = 2;
  LoadClient good(good_config);
  good.Start();

  EXPECT_TRUE(WaitFor([&] { return runtime.Totals().pool_evictions >= 8; },
                      std::chrono::seconds(30)))
      << "pool pressure never evicted the idle holders";
  EXPECT_TRUE(WaitFor([&] { return good.completed() >= 50; }, std::chrono::seconds(30)))
      << "good traffic starved behind the holders";
  EXPECT_TRUE(WaitFor([&] { return storm.stalled_reaped() >= 8; },
                      std::chrono::seconds(30)));

  storm.Stop();
  good.Stop();
  runtime.Stop();

  RtTotals totals = runtime.Totals();
  EXPECT_GE(totals.pool_evictions, 8u);
  // With every timeout class disabled, eviction is the only source of
  // kIdle closes: the subset relation collapses to equality.
  EXPECT_EQ(totals.timeouts_idle, totals.pool_evictions);
  EXPECT_EQ(totals.timeouts_handshake + totals.timeouts_read + totals.timeouts_write, 0u);
  EXPECT_EQ(totals.accepted, totals.accounted());
  ASSERT_NE(runtime.conn_pool(), nullptr);
  EXPECT_EQ(runtime.conn_pool()->live_objects(), 0u);
  EXPECT_EQ(storm.attempted(), storm.accounted());
}

// ---------------------------------------------------------------------------
// Graceful drain.
// ---------------------------------------------------------------------------

// A generous drain deadline lets the in-flight conversation finish: the
// connection serves one more round INSIDE the drain window, closes
// normally, and the runtime stops with zero aborts.
TEST(RtDeadlineTest, DrainCompletesInFlightWorkWithoutAborts) {
  RtConfig config;
  config.mode = RtMode::kAffinity;
  config.num_threads = 2;
  config.workload = svc::WorkloadKind::kEcho;
  config.idle_timeout_ms = 5000;      // far beyond the test's real-time span
  config.drain_deadline_ms = 10'000;  // generous: the drain must not expire
  Runtime runtime(config);
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;

  int fd = ConnectTcp(runtime.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(EchoRound(fd));

  std::thread stopper([&] { runtime.Stop(); });  // blocks in the drain window
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  // In-flight service continues while draining; then an orderly close.
  EXPECT_TRUE(EchoRound(fd));
  ::close(fd);
  stopper.join();

  RtTotals totals = runtime.Totals();
  EXPECT_EQ(totals.accepted, 1u);
  EXPECT_EQ(totals.served(), 1u);
  EXPECT_EQ(totals.aborted_at_stop, 0u);
  EXPECT_EQ(totals.drained_gracefully, 1u);
  EXPECT_EQ(totals.timed_out(), 0u);
  EXPECT_EQ(totals.drain_duration_ns.count(), 1u);
  EXPECT_EQ(totals.accepted, totals.accounted());
  ASSERT_NE(runtime.conn_pool(), nullptr);
  EXPECT_EQ(runtime.conn_pool()->live_objects(), 0u);
}

// A held connection that will never finish: the drain burns its deadline,
// then the remainder is aborted and accounted as aborted_at_stop -- never
// silently lost.
TEST(RtDeadlineTest, DrainDeadlineAbortsTheHeldRemainder) {
  RtConfig config;
  config.mode = RtMode::kAffinity;
  config.num_threads = 2;
  config.workload = svc::WorkloadKind::kEcho;
  config.idle_timeout_ms = 60'000;  // enabled, but far past the drain window
  config.drain_deadline_ms = 250;
  Runtime runtime(config);
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;

  int fd = ConnectTcp(runtime.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(EchoRound(fd));  // now held open, idle, never closing

  auto t0 = std::chrono::steady_clock::now();
  runtime.Stop();
  auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(elapsed, std::chrono::milliseconds(250));

  EXPECT_TRUE(ReadUntilPeerClose(fd));
  ::close(fd);

  RtTotals totals = runtime.Totals();
  EXPECT_EQ(totals.accepted, 1u);
  EXPECT_EQ(totals.served(), 0u);
  EXPECT_EQ(totals.aborted_at_stop, 1u);
  EXPECT_EQ(totals.drained_gracefully, 0u);
  EXPECT_EQ(totals.drain_duration_ns.count(), 1u);
  EXPECT_GE(totals.drain_duration_ns.max(), Ms(250));
  EXPECT_EQ(totals.accepted, totals.accounted());
  ASSERT_NE(runtime.conn_pool(), nullptr);
  EXPECT_EQ(runtime.conn_pool()->live_objects(), 0u);
}

// ---------------------------------------------------------------------------
// ValidateRtConfig: contradictory lifecycle knobs fail at Start, not at 3am.
// ---------------------------------------------------------------------------

TEST(RtDeadlineTest, ValidateRejectsDrainWithEveryTimeoutDisabled) {
  RtConfig config;
  config.drain_deadline_ms = 1000;  // nothing could ever finish draining
  std::string error;
  EXPECT_FALSE(ValidateRtConfig(config, &error));
  EXPECT_NE(error.find("drain_deadline_ms"), std::string::npos) << error;
}

TEST(RtDeadlineTest, ValidateAcceptsACoherentDeadlineConfig) {
  RtConfig config;
  config.handshake_timeout_ms = 50;
  config.idle_timeout_ms = 70;
  config.read_timeout_ms = 60;
  config.write_timeout_ms = 60;
  config.drain_deadline_ms = 1000;
  std::string error;
  EXPECT_TRUE(ValidateRtConfig(config, &error)) << error;
}

}  // namespace
}  // namespace rt
}  // namespace affinity
