// The chaos matrix: live-socket runtime runs with scheduled faults from
// src/fault. Each test wounds the runtime in a specific way -- a stalled
// reactor, a killed reactor, an EMFILE storm, an exhausted conn pool -- and
// gates on two invariants: the runtime keeps accepting, and the books
// balance exactly (accepted == served + drained + dropped + shed; client
// attempts == completed + refused + timeouts + port-busy + errors). These
// run under ThreadSanitizer in CI (the rt_tests target), so the failover
// paths are also race-checked.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "src/fault/fault_plan.h"
#include "src/fault/injector.h"
#include "src/rt/load_client.h"
#include "src/rt/runtime.h"
#include "src/steer/flow_director.h"
#include "src/svc/conn_handler.h"

namespace affinity {
namespace rt {
namespace {

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

void ExpectBooksBalance(const Runtime& runtime, const LoadClient& client) {
  RtTotals totals = runtime.Totals();
  EXPECT_EQ(totals.accepted, totals.accounted())
      << "accepted=" << totals.accepted << " served=" << totals.served()
      << " drained=" << totals.drained_at_stop << " overflow=" << totals.overflow_drops
      << " shed=" << totals.admission_shed << " timed_out=" << totals.timed_out();
  ASSERT_NE(runtime.conn_pool(), nullptr);
  EXPECT_EQ(runtime.conn_pool()->live_objects(), 0u);
  EXPECT_EQ(client.attempted(), client.accounted());
}

RtConfig ChaosConfig(int threads) {
  RtConfig config;
  config.mode = RtMode::kAffinity;
  config.num_threads = threads;
  config.steer = true;
  config.steer_force_fallback = true;  // deterministic in non-root CI
  config.migrate_interval_ms = 50;
  config.watchdog_timeout_ms = 100;
  return config;
}

TEST(RtChaosTest, ReactorStallFailsOverThenRecovers) {
  const int kThreads = 4;
  const int kVictim = 3;
  RtConfig config = ChaosConfig(kThreads);
  // The victim's epoll_wait wedges for 800 ms -- far past the 100 ms
  // watchdog timeout -- then resumes, so the run sees both transitions.
  config.fault_plan = fault::FaultPlan::ReactorStall(kVictim, /*after_calls=*/50,
                                                     /*stall_ms=*/800);
  Runtime runtime(config);
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;

  LoadClientConfig client_config;
  client_config.port = runtime.port();
  client_config.num_threads = 4;
  client_config.connect_timeout_ms = 2000;
  LoadClient client(client_config);
  client.Start();

  // A peer must win the failover while the victim is wedged...
  EXPECT_TRUE(WaitFor([&] { return runtime.Totals().failovers >= 1; },
                      std::chrono::seconds(10)))
      << "no failover within the deadline";
  // ...and the victim must self-recover once the stall ends.
  EXPECT_TRUE(WaitFor([&] { return runtime.Totals().recoveries >= 1; },
                      std::chrono::seconds(10)))
      << "no recovery within the deadline";
  ASSERT_NE(runtime.domains(), nullptr);
  EXPECT_TRUE(WaitFor([&] { return !runtime.domains()->IsDead(kVictim); },
                      std::chrono::seconds(2)));

  // Traffic must have kept flowing across the whole episode.
  uint64_t before = runtime.Totals().served();
  EXPECT_TRUE(WaitFor([&] { return runtime.Totals().served() > before + 20; },
                      std::chrono::seconds(10)));

  client.Stop();
  runtime.Stop();

  RtTotals totals = runtime.Totals();
  EXPECT_GE(totals.failovers, 1u);
  EXPECT_GE(totals.recoveries, 1u);
  // The failover mass-migrated the victim's flow groups and recovery
  // brought (at least some of) them home: moves in both directions.
  EXPECT_GE(totals.failover_group_moves, 2u);
  EXPECT_GE(totals.fault_injected, 1u);
  ExpectBooksBalance(runtime, client);
  ASSERT_NE(runtime.trace(), nullptr);
  std::string trace = runtime.trace()->DumpToString();
  EXPECT_NE(trace.find("reactor_dead"), std::string::npos);
  EXPECT_NE(trace.find("reactor_recover"), std::string::npos);
}

// The acceptance e2e: one reactor dies mid-run and never comes back; the
// runtime keeps accepting because the survivors steal its ring dry, adopt
// its listen shard, and take over its flow groups.
TEST(RtChaosTest, ReactorKillSurvivorsKeepAccepting) {
  const int kThreads = 4;
  const int kVictim = 2;
  RtConfig config = ChaosConfig(kThreads);
  config.fault_plan = fault::FaultPlan::ReactorKill(kVictim, /*after_calls=*/50);
  Runtime runtime(config);
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;

  constexpr uint64_t kConns = 800;
  LoadClientConfig client_config;
  client_config.port = runtime.port();
  client_config.num_threads = 4;
  client_config.max_conns = kConns;
  client_config.connect_timeout_ms = 2000;
  LoadClient client(client_config);
  client.Start();

  EXPECT_TRUE(WaitFor([&] { return runtime.Totals().failovers >= 1; },
                      std::chrono::seconds(10)))
      << "watchdog never failed the killed reactor over";
  ASSERT_NE(runtime.domains(), nullptr);
  EXPECT_TRUE(runtime.domains()->IsDead(kVictim));
  // Every flow group has left the dead core.
  ASSERT_NE(runtime.director(), nullptr);
  EXPECT_TRUE(WaitFor([&] { return runtime.director()->table().OwnedBy(kVictim) == 0; },
                      std::chrono::seconds(5)));

  // The whole quota completes with only three reactors alive.
  client.WaitForMaxConns();
  runtime.Stop();

  EXPECT_GE(client.completed(), kConns);
  RtTotals totals = runtime.Totals();
  EXPECT_GE(totals.failovers, 1u);
  EXPECT_EQ(totals.recoveries, 0u);  // a killed reactor stays dead
  EXPECT_GE(totals.failover_group_moves, 1u);
  ExpectBooksBalance(runtime, client);
  ASSERT_NE(runtime.trace(), nullptr);
  EXPECT_NE(runtime.trace()->DumpToString().find("reactor_dead"), std::string::npos);
}

// The trace ring holds balancer decisions, not per-connection events: the
// failover's reactor_dead must still be in the adopter's ring after the
// survivor has served twice a ring's worth of held connections. Fallback
// steering parks the dead core's groups on the survivor, so its accepts
// queue locally and it records no steals of its own.
TEST(RtChaosTest, FailoverDecisionOutlivesHeldConnectionTraffic) {
  RtConfig config;
  config.mode = RtMode::kAffinity;
  config.num_threads = 2;
  config.steer = true;
  config.steer_force_fallback = true;
  config.watchdog_timeout_ms = 50;
  config.workload = svc::WorkloadKind::kEcho;
  config.fault_plan = fault::FaultPlan::ReactorKill(/*core=*/1, /*after_calls=*/200);
  Runtime runtime(config);
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;

  LoadClientConfig client_config;
  client_config.port = runtime.port();
  client_config.num_threads = 4;
  client_config.workload = svc::WorkloadKind::kEcho;
  client_config.requests_per_conn = 8;
  client_config.connect_timeout_ms = 2000;
  LoadClient client(client_config);
  client.Start();

  EXPECT_TRUE(WaitFor([&] { return runtime.Totals().failovers >= 1; },
                      std::chrono::seconds(10)))
      << "watchdog never failed the killed reactor over";
  ASSERT_NE(runtime.trace(), nullptr);
  const uint64_t ring_slots = runtime.trace()->capacity_per_core();
  const uint64_t served_at_failover = runtime.Totals().served();
  EXPECT_TRUE(WaitFor(
      [&] { return runtime.Totals().served() >= served_at_failover + 2 * ring_slots; },
      std::chrono::seconds(30)))
      << "the survivor stopped serving after the failover";

  client.Stop();
  runtime.Stop();

  ExpectBooksBalance(runtime, client);
  std::string trace = runtime.trace()->DumpToString();
  EXPECT_NE(trace.find("reactor_dead"), std::string::npos)
      << runtime.trace()->recorded() << " events recorded, " << runtime.trace()->dropped()
      << " overwritten";
}

TEST(RtChaosTest, EmfileStormBacksOffAndBalances) {
  RtConfig config;
  config.mode = RtMode::kAffinity;
  config.num_threads = 2;
  // Every core's accept4 reports EMFILE for 30 calls mid-run: the reactor
  // must burn its reserve fd, enter capped backoff, and come back out.
  config.fault_plan = fault::FaultPlan::AcceptErrnoBurst(EMFILE, /*after_calls=*/10,
                                                         /*count=*/30);
  Runtime runtime(config);
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;

  LoadClientConfig client_config;
  client_config.port = runtime.port();
  client_config.num_threads = 4;
  client_config.connect_timeout_ms = 500;
  LoadClient client(client_config);
  client.Start();

  EXPECT_TRUE(WaitFor([&] { return runtime.Totals().accept_emfile >= 1; },
                      std::chrono::seconds(10)));
  // Service must resume after the burst window passes.
  uint64_t seen = runtime.Totals().served();
  EXPECT_TRUE(WaitFor([&] { return runtime.Totals().served() > seen + 50; },
                      std::chrono::seconds(10)));

  client.Stop();
  runtime.Stop();

  RtTotals totals = runtime.Totals();
  EXPECT_GE(totals.accept_emfile, 1u);
  EXPECT_GE(totals.accept_backoff, 1u);
  EXPECT_GE(totals.fault_injected, totals.accept_emfile);
  ExpectBooksBalance(runtime, client);
}

// A backoff window must idle the reactor, not spin it: the listen fd is
// level-triggered, so while a connection waits in the backlog it would wake
// every epoll_wait until the window ends. Each window takes the listen fd
// out of the epoll set; the reactor wakes about once per window, when it
// listens again, fails again and opens the next one.
TEST(RtChaosTest, EmfileBackoffIdlesTheReactor) {
  RtConfig config;
  config.mode = RtMode::kAffinity;
  config.num_threads = 1;
  config.fault_plan = fault::FaultPlan::AcceptErrnoBurst(EMFILE, /*after_calls=*/0,
                                                         /*count=*/UINT64_MAX);
  Runtime runtime(config);
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;

  LoadClientConfig client_config;
  client_config.port = runtime.port();
  client_config.num_threads = 1;
  client_config.connect_timeout_ms = 500;
  LoadClient client(client_config);
  client.Start();

  ASSERT_TRUE(WaitFor([&] { return runtime.Totals().accept_backoff >= 1; },
                      std::chrono::seconds(10)));
  RtTotals before = runtime.Totals();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  RtTotals after = runtime.Totals();
  client.Stop();
  runtime.Stop();

  const uint64_t windows = after.accept_backoff - before.accept_backoff;
  const uint64_t wakeups = after.epoll_wakeups - before.epoll_wakeups;
  EXPECT_GE(windows, 1u);
  EXPECT_LE(wakeups, 2 * windows + 10) << "windows=" << windows;
  ExpectBooksBalance(runtime, client);
}

TEST(RtChaosTest, SoftAcceptErrnosAreSkippedNotFatal) {
  RtConfig config;
  config.mode = RtMode::kAffinity;
  config.num_threads = 2;
  // ECONNABORTED bursts are the common real-world flake: the peer reset
  // between SYN and accept. The loop must skip, count, and keep serving.
  config.fault_plan = fault::FaultPlan::AcceptErrnoBurst(ECONNABORTED, /*after_calls=*/5,
                                                         /*count=*/20);
  Runtime runtime(config);
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;

  constexpr uint64_t kConns = 300;
  LoadClientConfig client_config;
  client_config.port = runtime.port();
  client_config.num_threads = 4;
  client_config.max_conns = kConns;
  LoadClient client(client_config);
  client.Start();
  client.WaitForMaxConns();
  runtime.Stop();

  EXPECT_GE(client.completed(), kConns);
  RtTotals totals = runtime.Totals();
  EXPECT_GE(totals.accept_econnaborted, 1u);
  EXPECT_EQ(totals.accept_emfile, 0u);
  ExpectBooksBalance(runtime, client);
}

// The accept workload's one-byte reply must go through the fault seam like
// every other reply: a kWrite rule counts one call per served connection.
// A kAccept4 rule counts the drain: each listen wakeup accepts exactly the
// queue depth the kernel reports, so every accept4 returns a connection (no
// EAGAIN probe ends the drain). The rules are armed past any reachable call
// count, so they only count. At 16 clients the backlog is deeper than one,
// and one wakeup must still drain more than one connection.
TEST(RtChaosTest, AcceptWorkloadReplyGoesThroughTheWriteSeam) {
  for (int clients : {4, 16}) {
    SCOPED_TRACE("clients=" + std::to_string(clients));
    RtConfig config;
    config.mode = RtMode::kAffinity;
    config.num_threads = 2;
    config.fault_plan = fault::FaultPlan::ErrnoBurst(fault::CallSite::kWrite, /*core=*/-1, EIO,
                                                     /*after_calls=*/UINT64_MAX, /*count=*/1);
    config.fault_plan.rules.push_back(
        fault::FaultPlan::ErrnoBurst(fault::CallSite::kAccept4, /*core=*/-1, EIO,
                                     /*after_calls=*/UINT64_MAX, /*count=*/1)
            .rules[0]);
    Runtime runtime(config);
    std::string error;
    ASSERT_TRUE(runtime.Start(&error)) << error;

    const uint64_t conns = clients == 4 ? 200 : 2000;
    LoadClientConfig client_config;
    client_config.port = runtime.port();
    client_config.num_threads = clients;
    client_config.max_conns = conns;
    LoadClient client(client_config);
    client.Start();
    client.WaitForMaxConns();
    runtime.Stop();

    EXPECT_GE(client.completed(), conns);
    ASSERT_NE(runtime.injector(), nullptr);
    uint64_t writes = 0;
    uint64_t accepts = 0;
    for (int c = 0; c < config.num_threads; ++c) {
      writes += runtime.injector()->calls(fault::CallSite::kWrite, c);
      accepts += runtime.injector()->calls(fault::CallSite::kAccept4, c);
    }
    RtTotals totals = runtime.Totals();
    EXPECT_GE(totals.served(), conns);
    EXPECT_EQ(writes, totals.served());
    EXPECT_EQ(accepts, totals.accepted);
    EXPECT_EQ(totals.accept_eintr, 0u);
    EXPECT_EQ(totals.accept_econnaborted, 0u);
    EXPECT_EQ(totals.accept_eproto, 0u);
    if (clients == 16) {
      EXPECT_LT(totals.epoll_wakeups, totals.accepted);
    }
    EXPECT_EQ(totals.fault_injected, 0u);
    ExpectBooksBalance(runtime, client);
  }
}

TEST(RtChaosTest, PoolExhaustionShedsWithRst) {
  RtConfig config;
  config.mode = RtMode::kAffinity;
  config.num_threads = 2;
  config.pool_blocks_per_core = 2;  // 4 blocks total against 16 clients
  Runtime runtime(config);
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;

  LoadClientConfig client_config;
  client_config.port = runtime.port();
  client_config.num_threads = 16;
  client_config.connect_timeout_ms = 500;
  LoadClient client(client_config);
  client.Start();

  EXPECT_TRUE(WaitFor([&] { return runtime.Totals().pool_exhausted >= 1; },
                      std::chrono::seconds(10)))
      << "the starved pool never refused an accept";
  // Service continues underneath the shedding.
  uint64_t seen = runtime.Totals().served();
  EXPECT_TRUE(WaitFor([&] { return runtime.Totals().served() > seen + 50; },
                      std::chrono::seconds(10)));

  client.Stop();
  runtime.Stop();

  RtTotals totals = runtime.Totals();
  EXPECT_GE(totals.pool_exhausted, 1u);
  // Default admission policy: every pool refusal was an accept-then-RST
  // shed, none an orderly-close overflow.
  EXPECT_GE(totals.admission_shed, 1u);
  EXPECT_EQ(totals.overflow_drops, 0u);
  EXPECT_EQ(totals.admission_shed, totals.pool_exhausted);
  ExpectBooksBalance(runtime, client);
  ASSERT_NE(runtime.trace(), nullptr);
  EXPECT_NE(runtime.trace()->DumpToString().find("admission_shed"), std::string::npos);
}

TEST(RtChaosTest, LeaveInBacklogShedsNothing) {
  RtConfig config;
  config.mode = RtMode::kAffinity;
  config.num_threads = 2;
  config.overload = OverloadPolicy::kLeaveInBacklog;
  Runtime runtime(config);
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;

  constexpr uint64_t kConns = 300;
  LoadClientConfig client_config;
  client_config.port = runtime.port();
  client_config.num_threads = 8;
  client_config.max_conns = kConns;
  LoadClient client(client_config);
  client.Start();
  client.WaitForMaxConns();
  runtime.Stop();

  EXPECT_GE(client.completed(), kConns);
  RtTotals totals = runtime.Totals();
  // The pushback policy never RSTs: overload stays in the kernel backlog.
  EXPECT_EQ(totals.admission_shed, 0u);
  ExpectBooksBalance(runtime, client);
}

// Correlated failure: two of four reactors die at staggered times, so the
// second death lands on a survivor set that already absorbed a failover.
// The echo workload means the dead reactors abandon HELD conversations, not
// just queued accepts -- the close-time accounting (aborted_at_stop) must
// keep the conservation equation exact anyway.
TEST(RtChaosTest, TwoReactorsDieUnderHeldConnections) {
  const int kThreads = 4;
  RtConfig config = ChaosConfig(kThreads);
  config.workload = svc::WorkloadKind::kEcho;
  config.fault_plan = fault::FaultPlan::TwoReactorsDie(/*first_core=*/2, /*first_after=*/100,
                                                       /*second_core=*/3,
                                                       /*second_after=*/250);
  Runtime runtime(config);
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;

  LoadClientConfig client_config;
  client_config.port = runtime.port();
  client_config.num_threads = 4;
  client_config.workload = svc::WorkloadKind::kEcho;
  client_config.requests_per_conn = 4;
  client_config.connect_timeout_ms = 2000;
  LoadClient client(client_config);
  client.Start();

  // Both deaths must be failed over, in order, by the shrinking survivor
  // set.
  EXPECT_TRUE(WaitFor([&] { return runtime.Totals().failovers >= 2; },
                      std::chrono::seconds(15)))
      << "second failover never happened";
  ASSERT_NE(runtime.domains(), nullptr);
  EXPECT_TRUE(runtime.domains()->IsDead(2));
  EXPECT_TRUE(runtime.domains()->IsDead(3));

  // The two survivors keep completing whole conversations.
  uint64_t before = runtime.Totals().requests;
  EXPECT_TRUE(WaitFor([&] { return runtime.Totals().requests > before + 50; },
                      std::chrono::seconds(10)))
      << "request service stalled after the second death";

  client.Stop();
  runtime.Stop();

  RtTotals totals = runtime.Totals();
  EXPECT_GE(totals.failovers, 2u);
  EXPECT_EQ(totals.recoveries, 0u);
  ExpectBooksBalance(runtime, client);
}

// The client's side of the SysIface seam: a chaos plan refuses the client's
// connect(2)s and then errors its reads mid-conversation. The client must
// classify every outcome (refusals land in the refused-connect latency
// ledger; read errors become conn errors), keep its ledger conserved, and
// keep going -- while the server's books stay balanced through the partner
// misbehaving.
TEST(RtChaosTest, ClientSideFaultsAreClassifiedAndConserved) {
  RtConfig config;
  config.mode = RtMode::kAffinity;
  config.num_threads = 2;
  config.workload = svc::WorkloadKind::kEcho;
  Runtime runtime(config);
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;

  // Client thread 0: 30 connects refused at the seam starting at call 5;
  // client thread 1: 20 reads die with ECONNRESET starting at call 50.
  fault::FaultPlan plan = fault::FaultPlan::ErrnoBurst(fault::CallSite::kConnect, /*core=*/0,
                                                       ECONNREFUSED, /*after_calls=*/5,
                                                       /*count=*/30);
  {
    fault::FaultPlan reads = fault::FaultPlan::ErrnoBurst(fault::CallSite::kRead, /*core=*/1,
                                                          ECONNRESET, /*after_calls=*/50,
                                                          /*count=*/20);
    for (const fault::FaultRule& rule : reads.rules) {
      plan.rules.push_back(rule);
    }
  }
  fault::FaultInjector client_sys(plan, /*num_cores=*/4);

  LoadClientConfig client_config;
  client_config.port = runtime.port();
  client_config.num_threads = 4;
  client_config.workload = svc::WorkloadKind::kEcho;
  client_config.requests_per_conn = 2;
  client_config.connect_timeout_ms = 1000;
  client_config.sys = &client_sys;
  LoadClient client(client_config);
  client.Start();

  EXPECT_TRUE(WaitFor([&] { return client.refused() >= 30; }, std::chrono::seconds(15)))
      << "injected connect refusals never surfaced";
  EXPECT_TRUE(WaitFor([&] { return client.errors() >= 1; }, std::chrono::seconds(15)))
      << "injected read resets never surfaced";
  // Service must continue despite the flaky partner.
  uint64_t before = client.requests();
  EXPECT_TRUE(WaitFor([&] { return client.requests() > before + 20; },
                      std::chrono::seconds(10)));

  client.Stop();
  runtime.Stop();

  // Every injected refusal was timed: the refused-connect ledger holds one
  // sample per ECONNREFUSED the client observed.
  fault::InjectorStats stats = client_sys.Stats();
  EXPECT_GE(stats.injected[static_cast<int>(fault::CallSite::kConnect)], 30u);
  EXPECT_GE(stats.injected[static_cast<int>(fault::CallSite::kRead)], 1u);
  EXPECT_EQ(client.RefusedConnectLatencyNs().count(), client.refused());
  ExpectBooksBalance(runtime, client);
}

// Slowloris storm plus a reactor kill: stalled connections hold ARMED
// deadline entries on the victim's wheel when it dies. The death path must
// cancel every entry before the blocks recycle (the TSan leg of rt_tests
// race-checks the cleanup), survivors keep reaping the storm, and the whole
// episode still balances to the connection -- including the new timed_out
// and stalled_reaped terms.
TEST(RtChaosTest, SlowlorisStormSurvivesReactorKillAndBalances) {
  const int kThreads = 4;
  const int kVictim = 1;
  RtConfig config = ChaosConfig(kThreads);
  config.workload = svc::WorkloadKind::kEcho;
  config.handshake_timeout_ms = 40;
  config.idle_timeout_ms = 80;
  config.read_timeout_ms = 80;
  config.write_timeout_ms = 80;
  config.fault_plan = fault::FaultPlan::ReactorKill(kVictim, /*after_calls=*/100);
  Runtime runtime(config);
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;

  LoadClientConfig storm_config;
  storm_config.port = runtime.port();
  storm_config.num_threads = 8;
  storm_config.stall = StallMode::kHandshake;
  storm_config.connect_timeout_ms = 3000;
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

  // The kill lands while the reaper is mid-storm...
  EXPECT_TRUE(WaitFor([&] { return runtime.Totals().failovers >= 1; },
                      std::chrono::seconds(10)))
      << "watchdog never failed the killed reactor over";
  ASSERT_NE(runtime.domains(), nullptr);
  EXPECT_TRUE(runtime.domains()->IsDead(kVictim));
  // ...and the survivors keep reaping stallers and serving good traffic.
  uint64_t reaped_at_kill = runtime.Totals().timed_out();
  EXPECT_TRUE(WaitFor([&] { return runtime.Totals().timed_out() >= reaped_at_kill + 16; },
                      std::chrono::seconds(20)))
      << "the reaper stopped after the kill";
  uint64_t served_at_kill = good.completed();
  EXPECT_TRUE(WaitFor([&] { return good.completed() >= served_at_kill + 20; },
                      std::chrono::seconds(20)))
      << "good traffic starved after the kill";

  storm.Stop();
  good.Stop();
  runtime.Stop();

  RtTotals totals = runtime.Totals();
  EXPECT_GE(totals.failovers, 1u);
  EXPECT_GE(totals.timeouts_handshake, 16u);
  ExpectBooksBalance(runtime, storm);
  ExpectBooksBalance(runtime, good);
}

}  // namespace
}  // namespace rt
}  // namespace affinity
