// Cross-cutting property and invariant tests: randomized inputs, exact
// conservation laws, determinism.

#include <gtest/gtest.h>

#include "src/core/experiment.h"
#include "src/sim/rng.h"

namespace affinity {
namespace {

// --------------------------------------------------------------------------
// NIC steering properties
// --------------------------------------------------------------------------

class NicSteeringPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NicSteeringPropertyTest, EveryPacketLandsOnAValidRing) {
  EventLoop loop;
  NicConfig config;
  config.num_rings = 48;
  SimNic nic(config, &loop);
  nic.ProgramFlowGroupsRoundRobin();
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    FiveTuple flow{static_cast<uint32_t>(rng.Next()), 42,
                   static_cast<uint16_t>(rng.NextBelow(65536)), 80};
    int ring = nic.SteerOf(flow);
    ASSERT_GE(ring, 0);
    ASSERT_LT(ring, 48);
    // Determinism: same flow, same ring.
    ASSERT_EQ(nic.SteerOf(flow), ring);
  }
}

TEST_P(NicSteeringPropertyTest, FlowGroupsPartitionTheFlowSpace) {
  // Two flows in the same group always share a ring, whatever the migration
  // history.
  EventLoop loop;
  NicConfig config;
  config.num_rings = 8;
  config.num_flow_groups = 64;
  SimNic nic(config, &loop);
  nic.ProgramFlowGroupsRoundRobin();
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    // Random migration.
    nic.MigrateFlowGroup(static_cast<uint32_t>(rng.NextBelow(64)),
                         static_cast<int>(rng.NextBelow(8)));
    uint16_t port = static_cast<uint16_t>(rng.NextBelow(65536));
    uint16_t same_group = static_cast<uint16_t>((port + 64 * rng.NextBelow(100)) % 65536);
    if ((port & 63) != (same_group & 63)) {
      continue;  // wrapped into a different group
    }
    FiveTuple a{1, 2, port, 80};
    FiveTuple b{3, 4, same_group, 80};
    ASSERT_EQ(nic.SteerOf(a), nic.SteerOf(b)) << "port " << port;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NicSteeringPropertyTest, ::testing::Values(11, 22, 33));

// --------------------------------------------------------------------------
// Listen-socket conservation laws
// --------------------------------------------------------------------------

class ListenConservationTest : public ::testing::TestWithParam<AcceptVariant> {};

TEST_P(ListenConservationTest, EveryEstablishedConnectionIsAcceptedDroppedOrQueued) {
  ExperimentConfig config;
  config.kernel.machine = Amd48();
  config.kernel.num_cores = 6;
  config.kernel.listen.variant = GetParam();
  config.sessions_per_core = GetParam() == AcceptVariant::kStock ? 80 : 300;
  config.warmup = MsToCycles(400);
  config.measure = MsToCycles(300);
  Experiment experiment(config);
  experiment.Build();
  experiment.RunFor(config.warmup + config.measure);

  const ListenStats& stats = experiment.kernel().listen().stats();
  uint64_t queued = 0;
  for (CoreId c = 0; c < 6; ++c) {
    queued += experiment.kernel().listen().QueueLength(c);
  }
  // Conservation (no reset was done, so counters cover the whole run):
  // established == accepted + still queued (overflow drops never reached the
  // established counter; they are tracked separately).
  EXPECT_EQ(stats.established,
            stats.accepted_local + stats.accepted_remote + queued);
}

TEST_P(ListenConservationTest, ResponsesNeverExceedDeliveredRequests) {
  ExperimentConfig config;
  config.kernel.machine = Amd48();
  config.kernel.num_cores = 6;
  config.kernel.listen.variant = GetParam();
  config.sessions_per_core = GetParam() == AcceptVariant::kStock ? 80 : 300;
  config.warmup = MsToCycles(400);
  config.measure = MsToCycles(300);
  Experiment experiment(config);
  experiment.Build();
  experiment.RunFor(config.warmup + config.measure);
  const KernelStats& stats = experiment.kernel().stats();
  EXPECT_LE(stats.responses_sent, stats.requests_delivered);
}

INSTANTIATE_TEST_SUITE_P(Variants, ListenConservationTest,
                         ::testing::Values(AcceptVariant::kStock, AcceptVariant::kFine,
                                           AcceptVariant::kAffinity),
                         [](const ::testing::TestParamInfo<AcceptVariant>& param_info) {
                           switch (param_info.param) {
                             case AcceptVariant::kStock:
                               return std::string("Stock");
                             case AcceptVariant::kFine:
                               return std::string("Fine");
                             case AcceptVariant::kAffinity:
                               return std::string("Affinity");
                           }
                           return std::string("?");
                         });

// --------------------------------------------------------------------------
// Object lifetime conservation
// --------------------------------------------------------------------------

TEST(ObjectConservationTest, SlabAllocsEqualFreesPlusLive) {
  ExperimentConfig config;
  config.kernel.machine = Amd48();
  config.kernel.num_cores = 4;
  config.kernel.listen.variant = AcceptVariant::kAffinity;
  config.sessions_per_core = 100;
  config.warmup = MsToCycles(300);
  config.measure = MsToCycles(300);
  Experiment experiment(config);
  experiment.Build();
  experiment.RunFor(config.warmup);
  const SlabStats& stats = experiment.kernel().mem().slab().stats();
  EXPECT_EQ(stats.allocs, stats.frees + experiment.kernel().mem().slab().live_objects());
}

// --------------------------------------------------------------------------
// Determinism across variants and servers
// --------------------------------------------------------------------------

struct DetCase {
  AcceptVariant variant;
  ServerKind server;
};

class DeterminismTest : public ::testing::TestWithParam<DetCase> {};

TEST_P(DeterminismTest, IdenticalRunsProduceIdenticalAccounting) {
  auto run = [&] {
    ExperimentConfig config;
    config.kernel.machine = Amd48();
    config.kernel.num_cores = 4;
    config.kernel.listen.variant = GetParam().variant;
    config.server = GetParam().server;
    config.worker.workers_per_process = 64;
    config.sessions_per_core = 100;
    config.warmup = MsToCycles(200);
    config.measure = MsToCycles(300);
    return Experiment(config).Run();
  };
  ExperimentResult a = run();
  ExperimentResult b = run();
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.conns_completed, b.conns_completed);
  EXPECT_EQ(a.counters.NetworkStackCycles(), b.counters.NetworkStackCycles());
  EXPECT_EQ(a.counters.entry(KernelEntry::kSoftirqNetRx).l2_misses,
            b.counters.entry(KernelEntry::kSoftirqNetRx).l2_misses);
  EXPECT_EQ(a.listen_stats.accepted_local, b.listen_stats.accepted_local);
  EXPECT_EQ(a.steals, b.steals);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, DeterminismTest,
    ::testing::Values(DetCase{AcceptVariant::kStock, ServerKind::kApacheWorker},
                      DetCase{AcceptVariant::kFine, ServerKind::kApacheWorker},
                      DetCase{AcceptVariant::kAffinity, ServerKind::kApacheWorker},
                      DetCase{AcceptVariant::kAffinity, ServerKind::kLighttpd}),
    [](const ::testing::TestParamInfo<DetCase>& param_info) {
      std::string name = AcceptVariantName(param_info.param.variant);
      name += "_";
      name += ServerKindName(param_info.param.server);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) {
          c = '_';
        }
      }
      return name;
    });

// --------------------------------------------------------------------------
// Client-side invariants
// --------------------------------------------------------------------------

TEST(ClientInvariantTest, RequestsPerConnectionNeverExceedsConfigured) {
  ExperimentConfig config;
  config.kernel.machine = Amd48();
  config.kernel.num_cores = 2;
  config.kernel.listen.variant = AcceptVariant::kAffinity;
  config.client.num_sessions = 30;
  config.client.requests_per_connection = 4;
  config.client.burst_pattern = false;
  config.client.think_time = 0;
  config.warmup = MsToCycles(100);
  config.measure = MsToCycles(400);
  Experiment experiment(config);
  experiment.Build();
  experiment.RunFor(config.warmup + config.measure);
  // Every live kernel connection has served at most 4 requests.
  for (uint64_t id = 1; id < 100000; ++id) {
    Connection* conn = experiment.kernel().FindConnection(id);
    if (conn != nullptr) {
      EXPECT_LE(conn->requests_served, 4u);
    }
  }
}

TEST(ClientInvariantTest, BurstPatternIsOneTwoThree) {
  // With 6 requests and 100 ms think time, completion takes at least 200 ms
  // (two inter-burst waits) and at most ~300 ms on an unloaded server: the
  // 1+2+3 burst structure.
  ExperimentConfig config;
  config.kernel.machine = Amd48();
  config.kernel.num_cores = 2;
  config.kernel.listen.variant = AcceptVariant::kAffinity;
  config.client.num_sessions = 5;
  config.warmup = MsToCycles(0);
  config.measure = MsToCycles(900);
  ExperimentResult result = Experiment(config).Run();
  ASSERT_GT(result.conns_completed, 0u);
  EXPECT_GE(result.client.conn_latency.min(), MsToCycles(200));
  EXPECT_LE(result.client.conn_latency.max(), MsToCycles(320));
}

}  // namespace
}  // namespace affinity
