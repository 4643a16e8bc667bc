// Live end-to-end tests of the topology-aware runtime: real reactors over a
// ScriptedTopologySource, checking that the distance ledger's conservation
// law holds in every accept mode, that the forced-flat mode collapses every
// distance class into one, that live steals are attributed to the right
// distance class, and that a chaos failover under a scripted 2-socket model
// parks the dead reactor's flow groups on its LLC-mate and brings them home
// on recovery. These run under ThreadSanitizer in CI (the rt_tests target).

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "src/fault/fault_plan.h"
#include "src/rt/load_client.h"
#include "src/rt/runtime.h"
#include "src/steer/skew.h"
#include "src/topo/scripted_source.h"
#include "src/topo/topology.h"

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

// The distance split must tile the remote-request count exactly -- the
// ledger's conservation law, in every mode and topology.
void ExpectDistanceConservation(const RtTotals& totals) {
  EXPECT_EQ(totals.requests_remote_core, totals.requests_same_llc +
                                             totals.requests_cross_llc +
                                             totals.requests_cross_node);
  EXPECT_EQ(totals.steals, totals.steals_same_llc + totals.steals_cross_llc +
                               totals.steals_cross_node);
}

RtConfig TopoConfig(RtMode mode, topo::TopologySource* source, topo::TopoMode topo_mode) {
  RtConfig config;
  config.mode = mode;
  config.num_threads = 4;
  config.topo_mode = topo_mode;
  config.topo_source = source;
  return config;
}

// Serves `conns` connections and stops the runtime; its topology stays
// readable on runtime->topology().
RtTotals RunOnce(Runtime* runtime, uint64_t conns) {
  std::string error;
  EXPECT_TRUE(runtime->Start(&error)) << error;

  LoadClientConfig client_config;
  client_config.port = runtime->port();
  client_config.num_threads = 4;
  client_config.max_conns = conns;
  LoadClient client(client_config);
  client.Start();
  client.WaitForMaxConns();
  client.Stop();
  runtime->Stop();
  return runtime->Totals();
}

TEST(RtTopoE2eTest, DistanceLedgerConservesInEveryMode) {
  topo::ScriptedTopologySource source(topo::TwoSocketMap(4));
  for (RtMode mode : {RtMode::kStock, RtMode::kFine, RtMode::kAffinity}) {
    Runtime runtime(TopoConfig(mode, &source, topo::TopoMode::kAuto));
    RtTotals totals = RunOnce(&runtime, 200);
    ASSERT_NE(runtime.topology(), nullptr);
    const topo::Topology& model = *runtime.topology();
    EXPECT_EQ(topo::TopoOrigin::kScripted, model.origin()) << RtModeName(mode);
    EXPECT_EQ(2, model.num_nodes()) << RtModeName(mode);
    EXPECT_EQ(2, model.num_llc_domains()) << RtModeName(mode);
    EXPECT_TRUE(model.flat_reason().empty()) << model.flat_reason();
    ExpectDistanceConservation(totals);
  }
}

TEST(RtTopoE2eTest, ForcedFlatCollapsesEveryDistanceClass) {
  // topo_mode=flat ignores discovery: one node, one LLC, and the whole
  // remote split folds into same_llc -- with the reason spelled out.
  Runtime runtime(TopoConfig(RtMode::kAffinity, nullptr, topo::TopoMode::kFlat));
  RtTotals totals = RunOnce(&runtime, 200);
  ASSERT_NE(runtime.topology(), nullptr);
  const topo::Topology& model = *runtime.topology();
  EXPECT_EQ(topo::TopoOrigin::kFlat, model.origin());
  EXPECT_EQ(1, model.num_nodes());
  EXPECT_EQ(1, model.num_llc_domains());
  EXPECT_NE(std::string::npos, model.flat_reason().find("configured")) << model.flat_reason();
  EXPECT_EQ(0u, totals.requests_cross_llc);
  EXPECT_EQ(0u, totals.requests_cross_node);
  ExpectDistanceConservation(totals);
}

TEST(RtTopoE2eTest, ScriptedSourceRejectingTheRunDegradesToFlatLoudly) {
  // A 2-core script under a 4-reactor run cannot describe the machine; the
  // runtime must come up flat and say why, not guess.
  topo::ScriptedTopologySource source(topo::TwoSocketMap(2));
  Runtime runtime(TopoConfig(RtMode::kAffinity, &source, topo::TopoMode::kAuto));
  RtTotals totals = RunOnce(&runtime, 100);
  ASSERT_NE(runtime.topology(), nullptr);
  EXPECT_EQ(topo::TopoOrigin::kFlat, runtime.topology()->origin());
  EXPECT_FALSE(runtime.topology()->flat_reason().empty());
  ExpectDistanceConservation(totals);
}

TEST(RtTopoE2eTest, SkewedStealsLandInTheRightDistanceClass) {
  // Every flow group starts at core 0 (the Section 6.5 skew), migration
  // off: the other reactors serve purely by stealing from core 0. Under the
  // scripted 2-socket map, core 1's steals are same-LLC and cores 2/3 pay
  // the cross-node class -- both series must show up, and they must tile
  // the total exactly.
  topo::ScriptedTopologySource source(topo::TwoSocketMap(4));
  RtConfig config;
  config.mode = RtMode::kAffinity;
  config.num_threads = 4;
  config.steer = true;
  config.steer_force_fallback = true;  // deterministic in non-root CI
  config.migrate_interval_ms = 0;
  config.topo_source = &source;
  Runtime runtime(config);
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;

  LoadClientConfig client_config;
  client_config.port = runtime.port();
  client_config.num_threads = 4;
  client_config.max_conns = 1200;
  client_config.src_ports = steer::SkewedSourcePorts(
      /*owner_core=*/0, /*num_cores=*/4, runtime.director()->table().num_groups(),
      /*num_groups=*/8, /*ports_per_group=*/8, /*exclude_port=*/runtime.port());
  LoadClient client(client_config);
  client.Start();
  client.WaitForMaxConns();
  client.Stop();
  runtime.Stop();

  RtTotals totals = runtime.Totals();
  ASSERT_GT(totals.steals, 0u);
  ExpectDistanceConservation(totals);
  // The only busy core sits on socket 0, so the remote socket's thieves can
  // only log cross-node steals and core 1 can only log same-LLC ones.
  EXPECT_EQ(0u, totals.steals_cross_llc);
  EXPECT_GT(totals.steals_same_llc + totals.steals_cross_node, 0u);
}

TEST(RtTopoE2eTest, ChaosFailoverParksOnTheLlcMateAndRecovers) {
  // Reactor 3's epoll_wait wedges past the watchdog: its flow groups must
  // park -- preferring its LLC-mate (core 2 under the 2-socket script) --
  // and come home when it recovers. Light load keeps the mate non-busy so
  // the same-LLC preference is observable, not just conserved.
  topo::ScriptedTopologySource source(topo::TwoSocketMap(4));
  RtConfig config;
  config.mode = RtMode::kAffinity;
  config.num_threads = 4;
  config.steer = true;
  config.steer_force_fallback = true;
  config.migrate_interval_ms = 50;
  config.watchdog_timeout_ms = 100;
  config.topo_source = &source;
  config.fault_plan = fault::FaultPlan::ReactorStall(/*core=*/3, /*after_calls=*/50,
                                                     /*stall_ms=*/800);
  Runtime runtime(config);
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;

  LoadClientConfig client_config;
  client_config.port = runtime.port();
  client_config.num_threads = 2;
  client_config.connect_timeout_ms = 2000;
  LoadClient client(client_config);
  client.Start();

  EXPECT_TRUE(WaitFor([&] { return runtime.Totals().failovers >= 1; },
                      std::chrono::seconds(10)))
      << "no failover within the deadline";
  EXPECT_TRUE(WaitFor([&] { return runtime.Totals().recoveries >= 1; },
                      std::chrono::seconds(10)))
      << "no recovery within the deadline";

  client.Stop();
  runtime.Stop();
  RtTotals totals = runtime.Totals();
  EXPECT_EQ(totals.accepted, totals.accounted());
  // The nearest class won the parking; the 2-socket map has no
  // cross-LLC-same-node class at all, so that series must stay zero. The
  // failover_group_moves metric counts the recovery moves too, so the park
  // split is a subset of it, never more.
  uint64_t parks = totals.park_same_llc + totals.park_cross_llc + totals.park_cross_node;
  EXPECT_GT(totals.park_same_llc, 0u);
  EXPECT_EQ(0u, totals.park_cross_llc);
  EXPECT_LE(parks, totals.failover_group_moves);
  ExpectDistanceConservation(totals);
}

}  // namespace
}  // namespace rt
}  // namespace affinity
