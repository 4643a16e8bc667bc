// End-to-end service-layer tests: real reactors, real sockets, real
// request/response conversations. These gate the three svc properties the
// unit tests cannot: (1) the echo workload completes whole conversations
// under every accept arrangement, (2) a response larger than the socket
// buffer parks on kWantWrite and still arrives whole, and (3) a connection
// stolen from a wedged core completes its conversation on the thief -- the
// state machine travels with the pooled block. This file runs under
// ThreadSanitizer in CI (rt_tests).

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <string>
#include <thread>

#include "src/fault/fault_plan.h"
#include "src/rt/load_client.h"
#include "src/rt/runtime.h"
#include "src/steer/skew.h"

namespace affinity {
namespace rt {
namespace {

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

// The server conservation law (RtTotals::accounted()) balances, and after
// Stop() no connection can still be open.
void ExpectBooksBalance(const Runtime& runtime) {
  RtTotals totals = runtime.Totals();
  EXPECT_EQ(totals.open_conns, 0u);
  EXPECT_EQ(totals.accepted, totals.accounted())
      << "accepted=" << totals.accepted << " served=" << totals.served()
      << " open=" << totals.open_conns << " aborted=" << totals.aborted_at_stop
      << " drained=" << totals.drained_at_stop << " overflow=" << totals.overflow_drops
      << " shed=" << totals.admission_shed;
  ASSERT_NE(runtime.conn_pool(), nullptr);
  EXPECT_EQ(runtime.conn_pool()->live_objects(), 0u);
}

void ExpectClientLedgerBalances(const LoadClient& client) {
  EXPECT_EQ(client.attempted(), client.accounted());
}

TEST(SvcE2eTest, EchoConversationsCompleteInEveryMode) {
  for (RtMode mode : {RtMode::kStock, RtMode::kFine, RtMode::kAffinity}) {
    SCOPED_TRACE(RtModeName(mode));
    RtConfig config;
    config.mode = mode;
    config.num_threads = 2;
    config.workload = svc::WorkloadKind::kEcho;
    Runtime runtime(config);
    std::string error;
    ASSERT_TRUE(runtime.Start(&error)) << error;

    constexpr uint64_t kConns = 100;
    constexpr int kRounds = 4;
    LoadClientConfig client_config;
    client_config.port = runtime.port();
    client_config.num_threads = 4;
    client_config.max_conns = kConns;
    client_config.workload = svc::WorkloadKind::kEcho;
    client_config.requests_per_conn = kRounds;
    client_config.payload_bytes = 48;
    client_config.connect_timeout_ms = 2000;
    LoadClient client(client_config);
    client.Start();
    client.WaitForMaxConns();
    runtime.Stop();

    EXPECT_GE(client.completed(), kConns);
    // A completed connection is all kRounds rounds, client-verified.
    EXPECT_GE(client.requests(), kConns * kRounds);
    RtTotals totals = runtime.Totals();
    // The server finished at least every round the client saw finish (a
    // client round needs the full response, which needs the server round).
    EXPECT_GE(totals.requests, client.requests());
    EXPECT_EQ(totals.request_latency_ns.count(), totals.requests);
    ExpectBooksBalance(runtime);
    ExpectClientLedgerBalances(client);
  }
}

TEST(SvcE2eTest, StaticWorkloadServesObjectsEndToEnd) {
  RtConfig config;
  config.mode = RtMode::kAffinity;
  config.num_threads = 2;
  config.workload = svc::WorkloadKind::kStatic;
  config.handler.num_objects = 16;
  config.handler.object_bytes = 256;
  Runtime runtime(config);
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;

  constexpr uint64_t kConns = 80;
  LoadClientConfig client_config;
  client_config.port = runtime.port();
  client_config.num_threads = 4;
  client_config.max_conns = kConns;
  client_config.workload = svc::WorkloadKind::kStatic;
  client_config.requests_per_conn = 3;
  client_config.num_keys = 16;
  client_config.connect_timeout_ms = 2000;
  LoadClient client(client_config);
  client.Start();
  client.WaitForMaxConns();
  runtime.Stop();

  EXPECT_GE(client.completed(), kConns);
  EXPECT_GE(client.requests(), kConns * 3);
  ExpectBooksBalance(runtime);
  ExpectClientLedgerBalances(client);
}

// 64 KiB responses cannot fit a loopback send buffer: every conversation
// must park on kWantWrite mid-response and be re-armed for EPOLLOUT -- the
// write half of the state machine the single-buffer workloads never reach.
TEST(SvcE2eTest, StreamResponsesParkOnWriteAndComplete) {
  RtConfig config;
  config.mode = RtMode::kAffinity;
  config.num_threads = 2;
  config.workload = svc::WorkloadKind::kStream;
  config.handler.stream_chunk_bytes = 4096;
  config.handler.stream_chunks = 16;
  Runtime runtime(config);
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;

  constexpr uint64_t kConns = 60;
  constexpr int kRounds = 2;
  LoadClientConfig client_config;
  client_config.port = runtime.port();
  client_config.num_threads = 4;
  client_config.max_conns = kConns;
  client_config.workload = svc::WorkloadKind::kStream;
  client_config.requests_per_conn = kRounds;
  client_config.payload_bytes = 16;
  client_config.connect_timeout_ms = 4000;
  LoadClient client(client_config);
  client.Start();
  client.WaitForMaxConns();
  runtime.Stop();

  // The client verifies framing: a completed request means all 64 KiB
  // arrived, byte-counted against the header's promise.
  EXPECT_GE(client.completed(), kConns);
  EXPECT_GE(client.requests(), kConns * kRounds);
  EXPECT_GE(runtime.Totals().requests, client.requests());
  ExpectBooksBalance(runtime);
  ExpectClientLedgerBalances(client);
}

// One live conversation of more than 65,535 rounds: the server must count
// each round exactly once -- no wrap of the per-connection round counter,
// no early close from a truncated round limit.
TEST(SvcE2eTest, ConversationPastSixteenBitsOfRoundsIsCountedExactly) {
  constexpr int kRounds = 70000;
  RtConfig config;
  config.mode = RtMode::kAffinity;
  config.num_threads = 1;
  config.workload = svc::WorkloadKind::kEcho;
  config.handler.echo_rounds = kRounds;
  Runtime runtime(config);
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;

  LoadClientConfig client_config;
  client_config.port = runtime.port();
  client_config.num_threads = 1;
  client_config.max_conns = 1;
  client_config.workload = svc::WorkloadKind::kEcho;
  client_config.requests_per_conn = kRounds;
  client_config.payload_bytes = 8;
  client_config.connect_timeout_ms = 2000;
  LoadClient client(client_config);
  client.Start();
  EXPECT_TRUE(WaitFor([&] { return client.completed() >= 1; }, std::chrono::seconds(120)))
      << "the conversation did not finish; rounds so far: " << client.requests();
  client.Stop();
  runtime.Stop();

  EXPECT_EQ(client.completed(), 1u);
  EXPECT_EQ(client.requests(), static_cast<uint64_t>(kRounds));
  RtTotals totals = runtime.Totals();
  EXPECT_EQ(totals.requests, client.requests());
  EXPECT_EQ(totals.request_latency_ns.count(), totals.requests);
  ExpectBooksBalance(runtime);
  ExpectClientLedgerBalances(client);
}

TEST(SvcE2eTest, StolenConnectionCompletesOnThief) {
  // Wedge reactor 0 mid-run with deterministic flow-group load steered at
  // it: its ring fills, the watchdog fails it over, and reactor 1 steals
  // the queued connections. Those connections must complete their echo
  // conversations ON THE THIEF -- the per-conn state machine lives in the
  // pooled block, so a steal moves the whole conversation. TSan watches.
  RtConfig config;
  config.mode = RtMode::kAffinity;
  config.num_threads = 2;
  config.workload = svc::WorkloadKind::kEcho;
  config.steer = true;
  config.steer_force_fallback = true;  // deterministic without root
  config.migrate_interval_ms = 0;      // no balancer: steals stay steals
  config.watchdog_timeout_ms = 100;
  config.fault_plan =
      fault::FaultPlan::ReactorStall(/*core=*/0, /*after_calls=*/20, /*stall_ms=*/3000);
  Runtime runtime(config);
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;

  LoadClientConfig client_config;
  client_config.port = runtime.port();
  client_config.num_threads = 4;
  client_config.workload = svc::WorkloadKind::kEcho;
  client_config.requests_per_conn = 2;
  client_config.connect_timeout_ms = 2000;
  // Deterministic source ports whose flow groups are all owned by core 0:
  // every connection is steered into the wedged reactor's ring.
  client_config.src_ports =
      steer::SkewedSourcePorts(/*owner_core=*/0, config.num_threads,
                               runtime.director()->table().num_groups(),
                               /*groups=*/4, /*ports_per_group=*/8,
                               /*exclude_port=*/runtime.port());
  LoadClient client(client_config);
  client.Start();

  // The thief must both steal from the dead core's ring and finish whole
  // conversations remotely.
  EXPECT_TRUE(WaitFor([&] { return runtime.Totals().steals >= 1; }, std::chrono::seconds(15)))
      << "no steal from the wedged reactor's ring";
  EXPECT_TRUE(WaitFor(
      [&] {
        RtTotals t = runtime.Totals();
        return t.served_remote >= 1 && t.requests >= 2;
      },
      std::chrono::seconds(15)))
      << "no stolen conversation completed remotely";

  client.Stop();
  runtime.Stop();

  RtTotals totals = runtime.Totals();
  EXPECT_GE(totals.steals, 1u);
  EXPECT_GE(totals.served_remote, 1u);
  EXPECT_GE(totals.requests, client.requests());
  ExpectBooksBalance(runtime);
  ExpectClientLedgerBalances(client);
}

}  // namespace
}  // namespace rt
}  // namespace affinity
