// End-to-end tests for the live-socket runtime (src/rt/): real TCP
// connections over loopback, all three accept arrangements. These run under
// ThreadSanitizer in CI (the rt_tests target), so they double as the data
// race check for the reactor/queue/policy plumbing.

#include "src/rt/runtime.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <tuple>

#include "src/obs/hwprof/scripted_source.h"
#include "src/rt/accept_ring.h"
#include "src/rt/listener.h"
#include "src/rt/load_client.h"

namespace affinity {
namespace rt {
namespace {

TEST(ListenerTest, ReuseportShardsShareOnePort) {
  std::string error;
  uint16_t port = 0;
  int a = CreateListenSocket(&port, 16, /*reuseport=*/true, &error);
  ASSERT_GE(a, 0) << error;
  ASSERT_GT(port, 0);
  // Second shard binds the port the kernel just picked.
  int b = CreateListenSocket(&port, 16, /*reuseport=*/true, &error);
  EXPECT_GE(b, 0) << error;
  // A non-reuseport socket cannot join them.
  uint16_t same_port = port;
  int c = CreateListenSocket(&same_port, 16, /*reuseport=*/false, &error);
  EXPECT_LT(c, 0);
  close(a);
  if (b >= 0) close(b);
  if (c >= 0) close(c);
}

// The reactors set no socket option per accept: an accepted socket must
// inherit TCP_NODELAY from its listen shard, or a multi-segment reply's
// tail would wait out the client's delayed ACK.
TEST(ListenerTest, AcceptedSocketInheritsNoDelayFromItsShard) {
  std::string error;
  uint16_t port = 0;
  int listener = CreateListenSocket(&port, 4, /*reuseport=*/true, &error);
  ASSERT_GE(listener, 0) << error;
  int client = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(client, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  ASSERT_EQ(connect(client, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  pollfd pfd{listener, POLLIN, 0};
  ASSERT_EQ(poll(&pfd, 1, /*timeout_ms=*/2000), 1);
  int accepted = accept4(listener, nullptr, nullptr, SOCK_CLOEXEC);
  ASSERT_GE(accepted, 0);
  int nodelay = 0;
  socklen_t len = sizeof(nodelay);
  ASSERT_EQ(getsockopt(accepted, IPPROTO_TCP, TCP_NODELAY, &nodelay, &len), 0);
  EXPECT_EQ(nodelay, 1);
  close(accepted);
  close(client);
  close(listener);
}

class RtRuntimeTest : public ::testing::TestWithParam<RtMode> {};

// Serve a fixed number of real loopback connections and check the books
// balance: every accepted connection is served, drained at shutdown, or
// dropped on overflow -- nothing leaks, in any mode, under TSan.
TEST_P(RtRuntimeTest, ServesLoopbackConnections) {
  RtConfig config;
  config.mode = GetParam();
  config.num_threads = 4;
  Runtime runtime(config);
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;
  ASSERT_GT(runtime.port(), 0);

  constexpr uint64_t kConns = 400;
  LoadClientConfig client_config;
  client_config.port = runtime.port();
  client_config.num_threads = 4;
  client_config.max_conns = kConns;
  LoadClient client(client_config);
  client.Start();
  client.WaitForMaxConns();
  runtime.Stop();

  EXPECT_GE(client.completed(), kConns);
  EXPECT_EQ(client.errors(), 0u);

  RtTotals totals = runtime.Totals();
  EXPECT_GE(totals.served(), kConns);
  EXPECT_EQ(totals.accepted, totals.accounted());
  EXPECT_EQ(totals.queue_wait_ns.count(), totals.served());
  // Pool books balance: every accepted connection got exactly one block
  // (unless the pool itself refused, which counts as an overflow drop) and
  // every block went back to its owner by the time Stop() returned.
  ASSERT_NE(runtime.conn_pool(), nullptr);
  EXPECT_EQ(runtime.conn_pool()->StatsSnapshot().allocs,
            totals.accepted - totals.pool_exhausted);
  EXPECT_EQ(runtime.conn_pool()->live_objects(), 0u);
  // An accept-workload connection is one round, and its serving core frees
  // its block: the remote frees are the rounds served off the acceptor.
  EXPECT_EQ(totals.conn_remote_frees, totals.requests_remote_core);
  if (GetParam() == RtMode::kStock) {
    // One shared queue: everything counts as local, nothing is stolen.
    EXPECT_EQ(totals.served_remote, 0u);
    EXPECT_EQ(totals.steals, 0u);
  }
  if (GetParam() != RtMode::kAffinity) {
    EXPECT_EQ(totals.steals, 0u);
  }
}

// A count-only plan: the rule never fires, but the injector counts every
// epoll_wait of every reactor.
fault::FaultPlan CountEpollWaits() {
  return fault::FaultPlan::ErrnoBurst(fault::CallSite::kEpollWait, /*core=*/-1, EIO,
                                      /*after_calls=*/UINT64_MAX, /*count=*/1);
}

// With no deadline, migration tick or watchdog tick due, an idle reactor
// sleeps in epoll_wait with no timer until something rings it: one wait
// for the whole run, ended by Stop(). A 1 ms wait cap would make about 300.
TEST_P(RtRuntimeTest, IdleReactorsParkUntilWoken) {
  RtConfig config;
  config.mode = GetParam();
  config.num_threads = 2;
  config.fault_plan = CountEpollWaits();
  Runtime runtime(config);
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  runtime.Stop();

  ASSERT_NE(runtime.injector(), nullptr);
  for (int c = 0; c < config.num_threads; ++c) {
    const uint64_t waits = runtime.injector()->calls(fault::CallSite::kEpollWait, c);
    EXPECT_GE(waits, 1u) << "reactor " << c;
    EXPECT_LE(waits, 2u) << "reactor " << c;
  }
}

// A TIME_WAIT socket's 4-tuple as /proc/net/tcp prints it: local address,
// local port, remote address, remote port.
using TcpTuple = std::tuple<unsigned, unsigned, unsigned, unsigned>;

// Every IPv4 TIME_WAIT socket in this network namespace.
std::set<TcpTuple> TimeWaitTuples() {
  std::ifstream table("/proc/net/tcp");
  std::string line;
  std::getline(table, line);  // header
  std::set<TcpTuple> tuples;
  while (std::getline(table, line)) {
    unsigned local = 0, local_port = 0, remote = 0, remote_port = 0, state = 0;
    constexpr unsigned kTimeWait = 0x06;
    if (std::sscanf(line.c_str(), " %*d: %x:%x %x:%x %x", &local, &local_port, &remote,
                    &remote_port, &state) == 5 &&
        state == kTimeWait) {
      tuples.emplace(local, local_port, remote, remote_port);
    }
  }
  return tuples;
}

INSTANTIATE_TEST_SUITE_P(AllModes, RtRuntimeTest,
                         ::testing::Values(RtMode::kStock, RtMode::kFine, RtMode::kAffinity),
                         [](const ::testing::TestParamInfo<RtMode>& mode_info) {
                           return std::string(RtModeName(mode_info.param));
                         });

// Whichever side closes first holds the TIME_WAIT. The accept workload's
// server closes first, and a client FIN after its EOF would leave one
// TIME_WAIT socket per connection on the listen port; an echo client closes
// first after its last round, and a FIN would leave one on its side. The
// client RST-closes instead, so the run adds none. Only 4-tuples absent at
// the start count: the kernel-chosen port may carry sockets that an earlier
// run left behind.
class RtTimeWaitTest
    : public ::testing::TestWithParam<std::tuple<RtMode, svc::WorkloadKind>> {};

TEST_P(RtTimeWaitTest, LoadClientLeavesNoTimeWait) {
  const auto [mode, workload] = GetParam();
  const std::set<TcpTuple> before = TimeWaitTuples();
  RtConfig config;
  config.mode = mode;
  config.num_threads = 2;
  config.workload = workload;
  Runtime runtime(config);
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;
  const unsigned port = runtime.port();

  constexpr uint64_t kConns = 200;
  LoadClientConfig client_config;
  client_config.port = runtime.port();
  client_config.num_threads = 2;
  client_config.max_conns = kConns;
  client_config.workload = workload;
  client_config.requests_per_conn = workload == svc::WorkloadKind::kAccept ? 1 : 4;
  LoadClient client(client_config);
  client.Start();
  client.WaitForMaxConns();
  runtime.Stop();
  ASSERT_GE(client.completed(), kConns);
  EXPECT_EQ(client.errors(), 0u);

  int new_time_wait = 0;
  for (const TcpTuple& tuple : TimeWaitTuples()) {
    if ((std::get<1>(tuple) == port || std::get<3>(tuple) == port) && before.count(tuple) == 0) {
      ++new_time_wait;
    }
  }
  EXPECT_EQ(new_time_wait, 0) << "TIME_WAIT sockets this run left on port " << port;
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndWorkloads, RtTimeWaitTest,
    ::testing::Combine(::testing::Values(RtMode::kStock, RtMode::kFine, RtMode::kAffinity),
                       ::testing::Values(svc::WorkloadKind::kAccept, svc::WorkloadKind::kEcho)),
    [](const ::testing::TestParamInfo<std::tuple<RtMode, svc::WorkloadKind>>& param_info) {
      const bool accept = std::get<1>(param_info.param) == svc::WorkloadKind::kAccept;
      return std::string(RtModeName(std::get<0>(param_info.param))) +
             (accept ? "_accept" : "_echo");
    });

// Stop() rings every parked reactor, so it returns at once even though no
// reactor has a timer to end its wait.
TEST(RtLifecycleTest, StopWithoutTrafficIsClean) {
  RtConfig config;
  config.mode = RtMode::kAffinity;
  config.num_threads = 2;
  config.fault_plan = CountEpollWaits();
  Runtime runtime(config);
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;
  // A reactor that has entered epoll_wait is parked: nothing here ends its
  // wait but a ring.
  ASSERT_NE(runtime.injector(), nullptr);
  const auto entered_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (int c = 0; c < config.num_threads; ++c) {
    while (runtime.injector()->calls(fault::CallSite::kEpollWait, c) == 0 &&
           std::chrono::steady_clock::now() < entered_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_GE(runtime.injector()->calls(fault::CallSite::kEpollWait, c), 1u) << "reactor " << c;
  }

  const auto stop_start = std::chrono::steady_clock::now();
  runtime.Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - stop_start, std::chrono::milliseconds(50));

  RtTotals totals = runtime.Totals();
  EXPECT_EQ(totals.accepted, 0u);
  EXPECT_EQ(totals.served(), 0u);
  const obs::MetricsSnapshot snapshot = runtime.metrics().Snapshot();
  const obs::SeriesSnap* rings = snapshot.Find("rt_doorbell_rings");
  ASSERT_NE(rings, nullptr);
  ASSERT_EQ(rings->values.size(), static_cast<size_t>(config.num_threads));
  for (int c = 0; c < config.num_threads; ++c) {
    EXPECT_GE(rings->values[static_cast<size_t>(c)], 1u) << "reactor " << c;
  }
}

// --- shutdown robustness: Stop() under live load, double Stop, restart ---

TEST(RtLifecycleTest, StopRacesLiveLoad) {
  // Stop() while clients are mid-connect: nothing may leak or double-free,
  // and the books must still balance. The client sees refusals/timeouts
  // after the listen sockets close -- that is the point.
  RtConfig config;
  config.mode = RtMode::kAffinity;
  config.num_threads = 4;
  Runtime runtime(config);
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;

  LoadClientConfig client_config;
  client_config.port = runtime.port();
  client_config.num_threads = 4;
  client_config.connect_timeout_ms = 100;
  LoadClient client(client_config);
  client.Start();
  // Let traffic build, then stop the server out from under the client.
  while (runtime.Totals().accepted < 50) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  runtime.Stop();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  client.Stop();

  RtTotals totals = runtime.Totals();
  EXPECT_GE(totals.accepted, 50u);
  EXPECT_EQ(totals.accepted, totals.accounted());
  ASSERT_NE(runtime.conn_pool(), nullptr);
  EXPECT_EQ(runtime.conn_pool()->live_objects(), 0u);
  // Client ledger: every attempt landed in exactly one outcome bucket.
  EXPECT_EQ(client.attempted(), client.accounted());
}

TEST(RtLifecycleTest, DoubleStopIsIdempotent) {
  RtConfig config;
  config.mode = RtMode::kAffinity;
  config.num_threads = 2;
  Runtime runtime(config);
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;
  runtime.Stop();
  RtTotals first = runtime.Totals();
  runtime.Stop();  // second Stop: no joins, no double-closes, same books
  RtTotals second = runtime.Totals();
  EXPECT_EQ(first.accepted, second.accepted);
  EXPECT_EQ(first.drained_at_stop, second.drained_at_stop);
}

TEST(RtLifecycleTest, StartAfterStopServesAgain) {
  RtConfig config;
  config.mode = RtMode::kAffinity;
  config.num_threads = 2;
  Runtime runtime(config);
  std::string error;

  uint64_t served_after_first = 0;
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(runtime.Start(&error)) << "round " << round << ": " << error;
    ASSERT_GT(runtime.port(), 0);
    LoadClientConfig client_config;
    client_config.port = runtime.port();
    client_config.num_threads = 2;
    client_config.max_conns = 50;
    LoadClient client(client_config);
    client.Start();
    client.WaitForMaxConns();
    runtime.Stop();
    RtTotals totals = runtime.Totals();
    EXPECT_GE(client.completed(), 50u) << "round " << round;
    // Metrics accumulate across restarts; conservation holds cumulatively.
    EXPECT_EQ(totals.accepted, totals.accounted()) << "round " << round;
    if (round == 0) {
      served_after_first = totals.served();
    } else {
      EXPECT_GE(totals.served(), served_after_first + 50);
    }
  }
}

// --- hardware locality profiling (src/obs/hwprof) + the connection-locality
// ledger, driven end-to-end through the runtime with the scripted seam so
// the whole path is deterministic and TSan-clean ---

class RtLocalityTest : public ::testing::TestWithParam<RtMode> {};

TEST_P(RtLocalityTest, LedgerConservesAndHwprofCountsThroughScriptedSeam) {
  obs::hwprof::ScriptedCounterSource source(4);
  RtConfig config;
  config.mode = GetParam();
  config.num_threads = 4;
  config.workload = svc::WorkloadKind::kEcho;
  config.hwprof = true;
  config.hwprof_sample_every = 1;  // exact attribution: every transition reads
  config.hwprof_source = &source;
  Runtime runtime(config);
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;

  LoadClientConfig client_config;
  client_config.port = runtime.port();
  client_config.num_threads = 4;
  client_config.workload = svc::WorkloadKind::kEcho;
  client_config.requests_per_conn = 4;
  client_config.max_conns = 300;
  LoadClient client(client_config);
  client.Start();
  client.WaitForMaxConns();
  runtime.Stop();
  EXPECT_EQ(client.errors(), 0u);

  RtTotals totals = runtime.Totals();
  ASSERT_GT(totals.requests, 0u);
  // The ledger's conservation equation: every completed request was served
  // either on its accept core or off it -- never both, never neither.
  EXPECT_EQ(totals.requests_local_core + totals.requests_remote_core, totals.requests);
  if (GetParam() == RtMode::kAffinity) {
    // Affinity's whole point: the accepting core serves the conversation.
    // Steals move a handful of connections under momentary imbalance, so
    // 0.9 is a generous floor for a test host; the bench reports the real
    // number (~1.0) alongside stock/fine for the strict comparison.
    EXPECT_GE(totals.locality_fraction(), 0.9);
    // Every remote-served request sits on a connection served off its
    // acceptor, whose block the serving core freed remotely.
    if (totals.requests_remote_core > 0) {
      EXPECT_GT(totals.conn_remote_frees, 0u);
    }
  }
  // hwprof through the scripted seam: every reactor's group opened and the
  // synthetic counters flowed through phase attribution into the estimates.
  const obs::hwprof::HwProf* hwprof = runtime.hwprof();
  ASSERT_NE(hwprof, nullptr);
  EXPECT_EQ(hwprof->AvailableCores(), 4);
  EXPECT_GT(hwprof->EstimatedTotal(obs::hwprof::HwEvent::kCycles), 0u);
  EXPECT_GT(hwprof->EstimatedTotal(obs::hwprof::HwEvent::kTaskClock), 0u);
  EXPECT_GT(hwprof->PhaseEntries(obs::hwprof::Phase::kEpollWait), 0u);
  EXPECT_GT(hwprof->PhaseEntries(obs::hwprof::Phase::kServe), 0u);
  EXPECT_GT(hwprof->PhaseEntries(obs::hwprof::Phase::kAccept), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllModes, RtLocalityTest,
                         ::testing::Values(RtMode::kStock, RtMode::kFine, RtMode::kAffinity),
                         [](const ::testing::TestParamInfo<RtMode>& mode_info) {
                           return std::string(RtModeName(mode_info.param));
                         });

TEST(RtHwprofTest, UnavailablePmuDegradesButStillServes) {
  // The CI/container path: the counter source refuses every core. The run
  // must serve normally, report the degradation explicitly (available
  // cores 0, a preserved reason), keep the phase entry counts, and keep
  // the locality ledger -- which needs no PMU at all.
  obs::hwprof::ScriptedCounterSource source(2);
  source.script(0).available = false;
  source.script(0).unavailable_reason = "scripted: perf_event_paranoid=3";
  source.script(1).available = false;

  RtConfig config;
  config.mode = RtMode::kAffinity;
  config.num_threads = 2;
  config.workload = svc::WorkloadKind::kEcho;
  config.hwprof = true;
  config.hwprof_source = &source;
  Runtime runtime(config);
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;

  LoadClientConfig client_config;
  client_config.port = runtime.port();
  client_config.num_threads = 2;
  client_config.workload = svc::WorkloadKind::kEcho;
  client_config.requests_per_conn = 4;
  client_config.max_conns = 100;
  LoadClient client(client_config);
  client.Start();
  client.WaitForMaxConns();
  runtime.Stop();
  EXPECT_EQ(client.errors(), 0u);

  RtTotals totals = runtime.Totals();
  const obs::hwprof::HwProf* hwprof = runtime.hwprof();
  ASSERT_NE(hwprof, nullptr);
  EXPECT_EQ(hwprof->AvailableCores(), 0);
  EXPECT_EQ(hwprof->EstimatedTotal(obs::hwprof::HwEvent::kCycles), 0u);
  EXPECT_EQ(hwprof->EstimatedTotal(obs::hwprof::HwEvent::kTaskClock), 0u);
  EXPECT_EQ(hwprof->unavailable_reason(0), "scripted: perf_event_paranoid=3");
  EXPECT_GT(hwprof->PhaseEntries(obs::hwprof::Phase::kServe), 0u);
  ASSERT_GT(totals.requests, 0u);
  EXPECT_EQ(totals.requests_local_core + totals.requests_remote_core, totals.requests);
}

TEST(RtLifecycleTest, StockModeUsesOneListenSocketAndQueue) {
  // Two runtimes on port 0 must not collide; stock mode must refuse a second
  // bind of ITS port (no SO_REUSEPORT), which we verify indirectly by
  // binding a reuseport socket to the stock port and failing.
  RtConfig config;
  config.mode = RtMode::kStock;
  config.num_threads = 2;
  Runtime runtime(config);
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;
  uint16_t port = runtime.port();
  int fd = CreateListenSocket(&port, 4, /*reuseport=*/true, &error);
  EXPECT_LT(fd, 0);
  if (fd >= 0) close(fd);
  runtime.Stop();
}

}  // namespace
}  // namespace rt
}  // namespace affinity
