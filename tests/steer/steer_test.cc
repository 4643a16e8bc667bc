// Tests for src/steer/: the cBPF flow-director program, the steering table,
// deterministic skewed source ports, the FlowDirector migration loop, and
// live end-to-end steering through the runtime (attached and fallback).
// These run under ThreadSanitizer in CI (the rt_tests target).

#include <gtest/gtest.h>
#include <linux/filter.h>

#include <cerrno>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "src/balance/balance_policy.h"
#include "src/rt/load_client.h"
#include "src/rt/runtime.h"
#include "src/steer/cbpf.h"
#include "src/steer/flow_director.h"
#include "src/steer/skew.h"
#include "src/steer/steering_table.h"

namespace affinity {
namespace steer {
namespace {

// Interprets the emitted program from the group-mask instruction on, with A
// pre-loaded with a source port -- checking the steering decision without a
// kernel. The two packet loads ahead of it are covered by the live tests.
uint32_t RunSteeringProgram(const std::vector<sock_filter>& prog, uint16_t src_port) {
  uint32_t a = src_port;
  for (size_t pc = 2; pc < prog.size(); ++pc) {
    const sock_filter& insn = prog[pc];
    switch (insn.code) {
      case BPF_ALU | BPF_AND | BPF_K:
        a &= insn.k;
        break;
      case BPF_ALU | BPF_MOD | BPF_K:
        a %= insn.k;
        break;
      case BPF_JMP | BPF_JEQ | BPF_K:
        pc += (a == insn.k) ? insn.jt : insn.jf;
        break;
      case BPF_RET | BPF_K:
        return insn.k;
      case BPF_RET | BPF_A:
        return a;
      default:
        ADD_FAILURE() << "unexpected opcode " << insn.code << " at " << pc;
        return ~0u;
    }
  }
  ADD_FAILURE() << "program fell off the end";
  return ~0u;
}

TEST(CbpfProgramTest, EncodesBaseMappingAndExceptions) {
  const uint32_t kGroups = 16;
  const uint32_t kSockets = 4;
  std::vector<GroupException> exceptions{{5, 2}, {7, 0}, {12, 3}};
  std::vector<sock_filter> prog = BuildFlowDirectorProgram(kGroups, kSockets, exceptions);
  ASSERT_EQ(prog.size(), kCbpfFixedInsns + 2 * exceptions.size());

  // The packet loads come first (checked live by the EndToEnd tests).
  EXPECT_EQ(prog[0].code, BPF_LDX | BPF_B | BPF_MSH);
  EXPECT_EQ(prog[1].code, BPF_LD | BPF_H | BPF_IND);
  EXPECT_EQ(prog[2].code, BPF_ALU | BPF_AND | BPF_K);
  EXPECT_EQ(prog[2].k, kGroups - 1);

  // Every port steers to table[port & 15]: round-robin unless excepted.
  for (uint32_t port = 1024; port < 1024 + 64; ++port) {
    uint32_t group = port & (kGroups - 1);
    uint32_t want = group % kSockets;
    for (const GroupException& e : exceptions) {
      if (e.group == group) {
        want = e.core;
      }
    }
    EXPECT_EQ(RunSteeringProgram(prog, static_cast<uint16_t>(port)), want) << "port " << port;
  }
}

TEST(CbpfProgramTest, RefusesOversizedExceptionLists) {
  std::vector<GroupException> too_many;
  for (uint32_t g = 0; g < MaxCbpfExceptions() + 1; ++g) {
    too_many.push_back(GroupException{g, 1});
  }
  EXPECT_TRUE(BuildFlowDirectorProgram(4096, 4, too_many).empty());
  // The largest representable list still compiles, under BPF_MAXINSNS.
  too_many.pop_back();
  std::vector<sock_filter> prog = BuildFlowDirectorProgram(4096, 4, too_many);
  EXPECT_FALSE(prog.empty());
  EXPECT_LE(prog.size(), static_cast<size_t>(BPF_MAXINSNS));
  // An empty program is refused at the attach layer, without a socket.
  std::string error;
  EXPECT_FALSE(AttachReuseportProgram(-1, {}, &error));
  EXPECT_FALSE(error.empty());
}

TEST(SteeringTableTest, RoundRobinStartAndOwnedCounts) {
  SteeringTable table(16, 4);
  for (uint32_t g = 0; g < 16; ++g) {
    EXPECT_EQ(table.OwnerOf(g), static_cast<CoreId>(g % 4));
  }
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(table.OwnedBy(c), 4);
  }
  EXPECT_TRUE(table.Exceptions().empty());

  table.Set(5, 0);  // group 5's base owner is core 1
  EXPECT_EQ(table.OwnerOf(5), 0);
  EXPECT_EQ(table.OwnedBy(0), 5);
  EXPECT_EQ(table.OwnedBy(1), 3);
  std::vector<GroupException> exceptions = table.Exceptions();
  ASSERT_EQ(exceptions.size(), 1u);
  EXPECT_EQ(exceptions[0].group, 5u);
  EXPECT_EQ(exceptions[0].core, 0u);

  table.Set(5, 1);  // back to base: the exception disappears
  EXPECT_TRUE(table.Exceptions().empty());
  EXPECT_EQ(table.OwnedBy(0), 4);

  // The group function masks to the low bits, like net::FlowGroupOf.
  EXPECT_EQ(table.GroupOfPort(0x1234), 0x1234u & 15u);
}

TEST(SkewTest, PortsStayInTheirGroup) {
  std::vector<uint16_t> ports = SourcePortsForGroup(7, 4096, /*exclude_port=*/7 + 4096);
  ASSERT_FALSE(ports.empty());
  for (uint16_t port : ports) {
    EXPECT_EQ(port & 4095u, 7u);
    EXPECT_GE(port, 1024);
    EXPECT_NE(port, 7 + 4096);
  }
}

TEST(SkewTest, SkewedPortsTargetOneCoreAndInterleave) {
  const int kCores = 4;
  const uint32_t kGroups = 4096;
  std::vector<uint16_t> ports =
      SkewedSourcePorts(/*owner_core=*/1, kCores, kGroups, /*groups=*/3, /*ports_per_group=*/2);
  ASSERT_EQ(ports.size(), 6u);
  std::set<uint32_t> groups_seen;
  for (uint16_t port : ports) {
    uint32_t group = port & (kGroups - 1);
    // Every chosen group round-robins to core 1.
    EXPECT_EQ(group % kCores, 1u) << "port " << port;
    groups_seen.insert(group);
  }
  EXPECT_EQ(groups_seen.size(), 3u);
  // Interleaved: the first `groups` entries already cover every group.
  std::set<uint32_t> head;
  for (size_t i = 0; i < 3; ++i) {
    head.insert(ports[i] & (kGroups - 1));
  }
  EXPECT_EQ(head.size(), 3u);
}

TEST(FlowDirectorTest, MigratesOneGroupFromTopVictim) {
  FlowDirectorConfig config;
  config.num_groups = 16;
  config.num_cores = 4;
  FlowDirector director(config);
  BalancePolicy policy(4, 8);

  // Core 0 stole three times from core 1, once from core 2.
  policy.OnSteal(0, 1);
  policy.OnSteal(0, 1);
  policy.OnSteal(0, 1);
  policy.OnSteal(0, 2);

  Migration m;
  ASSERT_TRUE(director.MigrateForCore(0, &policy, &m));
  EXPECT_EQ(m.from_core, 1);
  EXPECT_EQ(m.to_core, 0);
  EXPECT_EQ(m.victim_steals, 3u);
  EXPECT_EQ(director.table().OwnerOf(m.group), 0);
  EXPECT_EQ(director.table().OwnedBy(0), 5);
  EXPECT_EQ(director.table().OwnedBy(1), 3);

  // The epoch counts were reset: no second migration without new steals.
  EXPECT_FALSE(director.MigrateForCore(0, &policy, &m));
  EXPECT_EQ(director.table().OwnedBy(0), 5);
}

TEST(FlowDirectorTest, BusyCoresDoNotPullGroups) {
  FlowDirectorConfig config;
  config.num_groups = 16;
  config.num_cores = 4;
  FlowDirector director(config);
  BalancePolicy policy(4, 8);
  policy.OnSteal(0, 1);
  policy.OnEnqueueBatch(0, 1, 8);  // over the high watermark: core 0 is busy
  Migration m;
  EXPECT_FALSE(director.MigrateForCore(0, &policy, &m));
  EXPECT_EQ(director.table().OwnedBy(0), 4);
  EXPECT_EQ(director.table().OwnedBy(1), 4);
}

TEST(FlowDirectorTest, RepeatedMigrationsRotateGroups) {
  FlowDirectorConfig config;
  config.num_groups = 16;
  config.num_cores = 4;
  FlowDirector director(config);
  BalancePolicy policy(4, 8);
  std::set<uint32_t> moved;
  for (int epoch = 0; epoch < 4; ++epoch) {
    policy.OnSteal(2, 3);
    Migration m;
    ASSERT_TRUE(director.MigrateForCore(2, &policy, &m));
    EXPECT_EQ(m.from_core, 3);
    EXPECT_TRUE(moved.insert(m.group).second) << "group " << m.group << " moved twice";
  }
  EXPECT_EQ(director.table().OwnedBy(3), 0);
  // Core 3 owns nothing left to take.
  policy.OnSteal(2, 3);
  Migration m;
  EXPECT_FALSE(director.MigrateForCore(2, &policy, &m));
}

// --- watchdog failover: FailOverCore / RecoverCore ---

TEST(FlowDirectorTest, FailOverMovesEveryGroupAndRecoveryReverses) {
  FlowDirectorConfig config;
  config.num_groups = 16;
  config.num_cores = 4;
  FlowDirector director(config);
  BalancePolicy policy(4, 8);

  // The runtime pins the dead core busy before mass-migrating; mirror that,
  // so the dead core cannot be picked as its own failover target.
  policy.SetForcedBusy(1, true);
  EXPECT_EQ(4u, director.FailOverCore(1, &policy).total());
  EXPECT_EQ(0, director.table().OwnedBy(1));
  for (uint32_t g = 0; g < 16; ++g) {
    EXPECT_NE(1, director.table().OwnerOf(g)) << "group " << g;
  }

  // Recovery brings exactly the original groups home.
  policy.SetForcedBusy(1, false);
  EXPECT_EQ(4u, director.RecoverCore(1));
  EXPECT_EQ(4, director.table().OwnedBy(1));
  for (uint32_t g = 0; g < 16; ++g) {
    EXPECT_EQ(static_cast<CoreId>(g % 4), director.table().OwnerOf(g)) << "group " << g;
  }
  // The parking record is consumed: a second recovery is a no-op.
  EXPECT_EQ(0u, director.RecoverCore(1));
}

TEST(FlowDirectorTest, FailOverAvoidsBusySurvivors) {
  FlowDirectorConfig config;
  config.num_groups = 16;
  config.num_cores = 4;
  FlowDirector director(config);
  BalancePolicy policy(4, 8);
  policy.SetForcedBusy(1, true);
  policy.OnEnqueueBatch(3, 1, 8);  // over the high watermark: core 3 is overloaded
  ASSERT_TRUE(policy.IsBusy(3));

  EXPECT_EQ(4u, director.FailOverCore(1, &policy).total());
  // One failover must not bury an already-overloaded peer: everything lands
  // on the non-busy survivors.
  for (uint32_t g = 0; g < 16; ++g) {
    CoreId owner = director.table().OwnerOf(g);
    EXPECT_NE(1, owner) << "group " << g;
    if (g % 4 != 3) {
      EXPECT_NE(3, owner) << "group " << g;
    }
  }
}

TEST(FlowDirectorTest, ChainedFailoverForwardsParksAndRecoveryReclaimsThemAll) {
  FlowDirectorConfig config;
  config.num_groups = 16;
  config.num_cores = 4;
  FlowDirector director(config);
  BalancePolicy policy(4, 8);

  // Core 1 dies; its groups park across {0, 2, 3}.
  policy.SetForcedBusy(1, true);
  ASSERT_EQ(4u, director.FailOverCore(1, &policy).total());
  // Then the park target core 2 dies too. The group core 1's failover
  // parked there is chain-forwarded: core 1's parking record follows it to
  // the new host instead of dangling on the dead middleman (the old
  // asymmetry lost it forever and let core 2's recovery claim it).
  policy.SetForcedBusy(2, true);
  uint64_t second_wave = director.FailOverCore(2, &policy).total();
  EXPECT_GE(second_wave, 4u);  // core 2's own groups, plus any parked on it

  policy.SetForcedBusy(1, false);
  size_t returned = director.RecoverCore(1);
  // Every group core 1 lost comes home exactly -- including the one that
  // travelled 1 -> 2 -> elsewhere through the chained failover.
  EXPECT_EQ(4u, returned);
  EXPECT_EQ(4, director.table().OwnedBy(1));
  for (uint32_t g = 0; g < 16; ++g) {
    EXPECT_NE(2, director.table().OwnerOf(g)) << "group " << g;
  }
  // Core 2's own recovery gets back only its own groups, never core 1's.
  policy.SetForcedBusy(2, false);
  EXPECT_EQ(4u, director.RecoverCore(2));
  EXPECT_EQ(4, director.table().OwnedBy(2));
  EXPECT_EQ(4, director.table().OwnedBy(1));
}

TEST(FlowDirectorTest, RecoveryLeavesBalancerRehomedGroupsWithTheirNewOwner) {
  FlowDirectorConfig config;
  config.num_groups = 16;
  config.num_cores = 4;
  FlowDirector director(config);
  BalancePolicy policy(4, 8);

  policy.SetForcedBusy(1, true);
  ASSERT_EQ(4u, director.FailOverCore(1, &policy).total());
  // A steal-driven balancer migration moves one of the parked groups on:
  // that re-homing is earned, and recovery must respect it.
  uint32_t parked_group = 0;
  CoreId park_host = kNoCore;
  for (uint32_t g = 0; g < 16; ++g) {
    if (g % 4 == 1) {
      parked_group = g;
      park_host = director.table().OwnerOf(g);
      break;
    }
  }
  ASSERT_NE(kNoCore, park_host);
  policy.OnEnqueueBatch(park_host, 1, 8);  // park host goes busy...
  ASSERT_TRUE(policy.IsBusy(park_host));
  CoreId thief = park_host == 3 ? 0 : 3;
  policy.OnSteal(thief, park_host);  // ...and a thief earns a migration
  Migration moved;
  bool migrated = false;
  for (int attempt = 0; attempt < 16 && !migrated; ++attempt) {
    migrated = director.MigrateForCore(thief, &policy, &moved) &&
               moved.group == parked_group;
    if (!migrated && moved.from_core == kNoCore) {
      break;
    }
    policy.OnSteal(thief, park_host);
  }

  policy.SetForcedBusy(1, false);
  size_t returned = director.RecoverCore(1);
  if (migrated) {
    // The balancer-rehomed group stays with the thief; the rest come home.
    EXPECT_EQ(3u, returned);
    EXPECT_EQ(thief, director.table().OwnerOf(parked_group));
  } else {
    EXPECT_EQ(4u, returned);
  }
  EXPECT_EQ(static_cast<size_t>(director.table().OwnedBy(1)), returned);
}

TEST(FlowDirectorTest, FailOverNeedsASurvivor) {
  FlowDirectorConfig config;
  config.num_groups = 4;
  config.num_cores = 1;
  FlowDirector director(config);
  BalancePolicy policy(1, 8);
  EXPECT_EQ(0u, director.FailOverCore(0, &policy).total());
  EXPECT_EQ(4, director.table().OwnedBy(0));
}

// --- live end-to-end steering through the runtime ---

rt::RtConfig SteerConfig(bool force_fallback, int migrate_interval_ms) {
  rt::RtConfig config;
  config.mode = rt::RtMode::kAffinity;
  config.num_threads = 4;
  config.steer = true;
  config.steer_force_fallback = force_fallback;
  config.migrate_interval_ms = migrate_interval_ms;
  return config;
}

uint64_t RunClient(uint16_t port, uint64_t conns, const std::vector<uint16_t>& src_ports) {
  rt::LoadClientConfig client_config;
  client_config.port = port;
  client_config.num_threads = 4;
  client_config.max_conns = conns;
  client_config.src_ports = src_ports;
  rt::LoadClient client(client_config);
  client.Start();
  client.WaitForMaxConns();
  EXPECT_GE(client.completed(), conns);
  return client.errors();
}

// With the cBPF program attached, the kernel delivers every SYN to the shard
// of the core owning its flow group, so (with migration off) no accept ever
// needs a user-space re-steer. This is the live check of the packet-load
// instructions RunSteeringProgram skips.
TEST(SteerEndToEndTest, CbpfDeliversConnectionsToTheOwningShard) {
  rt::Runtime runtime(SteerConfig(/*force_fallback=*/false, /*migrate_interval_ms=*/0));
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;
  if (runtime.director()->kernel_steering() != KernelSteering::kAttached) {
    GTEST_SKIP() << "SO_ATTACH_REUSEPORT_CBPF unavailable here; fallback covered below";
  }

  EXPECT_EQ(RunClient(runtime.port(), 400, {}), 0u);
  runtime.Stop();

  rt::RtTotals totals = runtime.Totals();
  EXPECT_EQ(totals.steer_owner_accepts + totals.steer_cross_accepts, totals.accepted);
  EXPECT_EQ(totals.steer_cross_accepts, 0u);
  EXPECT_GT(totals.accepted, 0u);
  EXPECT_EQ(totals.accepted, totals.accounted());
  EXPECT_EQ(totals.admission_shed, 0u);
}

// Forced fallback: SYNs spread by the kernel's default reuseport hash and the
// accepting reactor re-steers each connection to its owner's queue. Serving
// must stay correct and the books must balance.
TEST(SteerEndToEndTest, FallbackServesCorrectly) {
  rt::Runtime runtime(SteerConfig(/*force_fallback=*/true, /*migrate_interval_ms=*/0));
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;
  ASSERT_NE(runtime.director(), nullptr);
  EXPECT_EQ(runtime.director()->kernel_steering(), KernelSteering::kFallback);

  EXPECT_EQ(RunClient(runtime.port(), 400, {}), 0u);
  runtime.Stop();

  rt::RtTotals totals = runtime.Totals();
  EXPECT_EQ(totals.steer_owner_accepts + totals.steer_cross_accepts, totals.accepted);
  EXPECT_EQ(totals.accepted, totals.accounted());
  EXPECT_EQ(totals.admission_shed, 0u);
  EXPECT_EQ(totals.migrations, 0u);
  EXPECT_EQ(totals.steer_cbpf, 0u);
}

// Every group owned by core 1, fallback steering, and no timer anywhere (no
// migration, watchdog or deadline): reactors 0, 2 and 3 re-steer what their
// shards accept onto core 1's ring, and reactor 1 sleeps with no timeout
// between its own shard's connections. Only the doorbell a cross-ring push
// rings gets those connections served before the client gives up on them.
TEST(SteerEndToEndTest, CrossPushWakesAParkedOwner) {
  rt::RtConfig config = SteerConfig(/*force_fallback=*/true, /*migrate_interval_ms=*/0);
  rt::Runtime runtime(config);
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;
  std::vector<uint16_t> src_ports =
      SkewedSourcePorts(/*owner_core=*/1, config.num_threads,
                        runtime.director()->table().num_groups(),
                        /*groups=*/8, /*ports_per_group=*/4, /*exclude_port=*/runtime.port());
  ASSERT_FALSE(src_ports.empty());
  for (uint16_t port : src_ports) {
    ASSERT_EQ(runtime.director()->OwnerOfPort(port), 1) << "port " << port;
  }

  constexpr uint64_t kConns = 400;
  rt::LoadClientConfig client_config;
  client_config.port = runtime.port();
  client_config.num_threads = 4;
  client_config.max_conns = kConns;
  client_config.src_ports = src_ports;
  rt::LoadClient client(client_config);
  client.Start();
  client.WaitForMaxConns();
  // Read before Stop(), which rings every parked reactor itself.
  const rt::RtTotals served = runtime.Totals();
  runtime.Stop();

  EXPECT_GE(client.completed(), kConns);
  EXPECT_EQ(client.timeouts(), 0u);
  EXPECT_EQ(client.errors(), 0u);
  EXPECT_GT(served.steer_cross_accepts, 0u);
  EXPECT_GT(served.doorbell_rings, 0u);
  rt::RtTotals totals = runtime.Totals();
  EXPECT_EQ(totals.accepted, totals.accounted());
  EXPECT_EQ(totals.admission_shed, 0u);
}

// Skewed load (every source port's group owned by core 0) plus the 100 ms
// balancer: other cores steal from core 0, then migrate its groups to
// themselves. The steering table must visibly drain away from core 0.
TEST(SteerEndToEndTest, MigrationMovesGroupsAwayFromTheHotCore) {
  rt::RtConfig config = SteerConfig(/*force_fallback=*/true, /*migrate_interval_ms=*/10);
  rt::Runtime runtime(config);
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;

  std::vector<uint16_t> src_ports =
      SkewedSourcePorts(/*owner_core=*/0, config.num_threads,
                        runtime.director()->table().num_groups(),
                        /*groups=*/8, /*ports_per_group=*/4, /*exclude_port=*/runtime.port());
  ASSERT_FALSE(src_ports.empty());
  for (uint16_t port : src_ports) {
    ASSERT_EQ(runtime.director()->OwnerOfPort(port), 0) << "port " << port;
  }

  EXPECT_EQ(RunClient(runtime.port(), 1500, src_ports), 0u);
  runtime.Stop();

  rt::RtTotals totals = runtime.Totals();
  // The skew forced remote service (steals feed the migration decision)...
  EXPECT_GT(totals.steals, 0u);
  // ...and the balancer acted on it: groups moved off the hot core. The
  // NET group count on core 0 is not asserted: on a single-CPU sanitizer
  // host the scheduler can leave core 0 idle long enough to steal back and
  // re-pull a few groups, which is legitimate balancer behavior -- the
  // direction of the skew response is what the test owns.
  EXPECT_GT(totals.migrations, 0u);
  ASSERT_NE(runtime.trace(), nullptr);
  bool moved_off_hot_core = false;
  for (const obs::TraceEvent& ev : runtime.trace()->Dump()) {
    if (ev.type == obs::TraceEventType::kMigrate && ev.src == 0) {
      moved_off_hot_core = true;
      break;
    }
  }
  EXPECT_TRUE(moved_off_hot_core) << "no migration pulled a group off the hot core";
  EXPECT_NE(runtime.trace()->DumpToString().find("migrate"), std::string::npos);
}

// The kernel takes the first program, then refuses every re-attach: the
// first migration's reprogram drops the director to fallback mid-run, and
// rt_steer_cbpf must follow it down. The injector counts every attach on
// core 0, so after_calls=1 lets exactly the Start() attach through.
TEST(SteerEndToEndTest, CbpfGaugeFollowsAMidRunDegrade) {
  rt::RtConfig config = SteerConfig(/*force_fallback=*/false, /*migrate_interval_ms=*/10);
  config.fault_plan = fault::FaultPlan::ErrnoBurst(fault::CallSite::kAttachFilter, /*core=*/-1,
                                                   EPERM, /*after_calls=*/1, UINT64_MAX);
  rt::Runtime runtime(config);
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;
  if (runtime.director()->kernel_steering() != KernelSteering::kAttached) {
    GTEST_SKIP() << "the kernel refused the first SO_ATTACH_REUSEPORT_CBPF, so there is no "
                    "attached state to degrade from";
  }
  EXPECT_EQ(runtime.Totals().steer_cbpf, 1u);

  std::vector<uint16_t> src_ports =
      SkewedSourcePorts(/*owner_core=*/0, config.num_threads,
                        runtime.director()->table().num_groups(),
                        /*groups=*/8, /*ports_per_group=*/4, /*exclude_port=*/runtime.port());
  ASSERT_FALSE(src_ports.empty());
  EXPECT_EQ(RunClient(runtime.port(), 1500, src_ports), 0u);
  runtime.Stop();

  rt::RtTotals totals = runtime.Totals();
  EXPECT_GT(totals.migrations, 0u);
  EXPECT_EQ(runtime.director()->kernel_steering(), KernelSteering::kFallback);
  EXPECT_EQ(totals.steer_cbpf, 0u);
  EXPECT_EQ(totals.steer_groups_owned, runtime.director()->table().num_groups());
  EXPECT_EQ(totals.accepted, totals.accounted());
}

}  // namespace
}  // namespace steer
}  // namespace affinity
