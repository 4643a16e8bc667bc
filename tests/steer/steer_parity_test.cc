// Sim/rt migration parity (the point of src/balance/migration_epoch.h): the
// simulator's FlowGroupMigrator (programming the SimNic's FDir table) and the
// runtime's steer::FlowDirector (rewriting the cBPF steering table), fed the
// exact same steal/busy history, must make the identical sequence of
// (victim, group, destination) decisions and converge to the same table.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>

#include "src/balance/balance_policy.h"
#include "src/balance/flow_migrator.h"
#include "src/hw/nic.h"
#include "src/sim/event_loop.h"
#include "src/steer/flow_director.h"
#include "src/topo/scripted_source.h"
#include "src/topo/topology.h"

namespace affinity {
namespace steer {
namespace {

constexpr int kCores = 4;
constexpr uint32_t kGroups = 16;
constexpr int kMaxLocalLen = 8;

class SteerParityTest : public ::testing::Test {
 protected:
  SteerParityTest() : sim_policy_(kCores, kMaxLocalLen), rt_policy_(kCores, kMaxLocalLen) {
    nic_config_.num_rings = kCores;
    nic_config_.num_flow_groups = kGroups;
    nic_ = std::make_unique<SimNic>(nic_config_, &loop_);
    nic_->ProgramFlowGroupsRoundRobin();
    migrator_ = std::make_unique<FlowGroupMigrator>(nic_.get(), [](CoreId c) { return c; });

    FlowDirectorConfig director_config;
    director_config.num_groups = kGroups;
    director_config.num_cores = kCores;
    director_ = std::make_unique<FlowDirector>(director_config);
  }

  // Every policy event goes to both sides, so their histories are identical.
  void Enqueue(CoreId core, size_t len_after) {
    sim_policy_.OnEnqueueBatch(core, 1, len_after);
    rt_policy_.OnEnqueueBatch(core, 1, len_after);
  }
  void Dequeue(CoreId core, size_t len_after) {
    sim_policy_.OnDequeueBatch(core, 1, len_after);
    rt_policy_.OnDequeueBatch(core, 1, len_after);
  }
  void Steal(CoreId thief, CoreId victim) {
    sim_policy_.OnSteal(thief, victim);
    rt_policy_.OnSteal(thief, victim);
  }

  // Runs one centralized epoch on both sides and checks the decisions match
  // one for one. Returns how many migrations the epoch made.
  size_t EpochAndCompare() {
    size_t before = migrator_->history().size();
    migrator_->RunEpoch(loop_.Now(), &sim_policy_, kCores);
    std::vector<Migration> rt_moves = director_->RunEpoch(&rt_policy_, kCores);

    const std::vector<MigrationRecord>& sim_history = migrator_->history();
    EXPECT_EQ(sim_history.size() - before, rt_moves.size());
    for (size_t i = 0; i < rt_moves.size() && before + i < sim_history.size(); ++i) {
      const MigrationRecord& sim_move = sim_history[before + i];
      EXPECT_EQ(sim_move.from_core, rt_moves[i].from_core) << "move " << i;
      EXPECT_EQ(sim_move.to_core, rt_moves[i].to_core) << "move " << i;
      EXPECT_EQ(sim_move.group, rt_moves[i].group) << "move " << i;
    }
    return rt_moves.size();
  }

  void ExpectTablesEqual() {
    for (uint32_t g = 0; g < kGroups; ++g) {
      EXPECT_EQ(nic_->RingOfFlowGroup(g), director_->table().OwnerOf(g)) << "group " << g;
    }
  }

  EventLoop loop_;
  NicConfig nic_config_;
  std::unique_ptr<SimNic> nic_;
  std::unique_ptr<FlowGroupMigrator> migrator_;
  std::unique_ptr<FlowDirector> director_;
  BalancePolicy sim_policy_;
  BalancePolicy rt_policy_;
  topo::Topology topo_ = topo::Topology::Flat(kCores, "parity default");
};

TEST_F(SteerParityTest, ScriptedHistoryProducesIdenticalMigrations) {
  // Epoch 1: cores 1..3 each stole from core 0; core 2 also from core 3.
  Steal(1, 0);
  Steal(1, 0);
  Steal(2, 0);
  Steal(2, 3);
  Steal(3, 0);
  EXPECT_EQ(EpochAndCompare(), 3u);
  ExpectTablesEqual();

  // Epoch 2: a busy core must not pull groups on either side.
  Steal(1, 0);
  Enqueue(1, kMaxLocalLen);  // over the high watermark
  EXPECT_EQ(EpochAndCompare(), 0u);
  Dequeue(1, 0);  // EWMA decays below the low watermark eventually
  ExpectTablesEqual();

  // Epoch 3: nothing stolen since the counts reset -> no movement.
  EXPECT_EQ(EpochAndCompare(), 0u);
  ExpectTablesEqual();
}

TEST_F(SteerParityTest, ParkAndRecoverUnderScriptedTopologyIsExact) {
  // The simulator has no failure domains: a runtime-side failover must be
  // perfectly invisible to parity once the core recovers. With a scripted
  // 2-socket topology the failover parks on the dead core's nearest peers
  // (not plain round-robin), and RecoverCore must undo exactly that
  // topology-ordered parking -- the old absolute-rotation restore lost
  // groups whenever the park order was anything but ascending.
  topo_ = topo::Topology::FromMap(topo::TwoSocketMap(kCores), topo::TopoOrigin::kScripted);
  FlowDirectorConfig director_config;
  director_config.num_groups = kGroups;
  director_config.num_cores = kCores;
  director_config.topo = &topo_;
  director_ = std::make_unique<FlowDirector>(director_config);

  // Epoch 1 on both sides: identical starting tables, identical decisions.
  Steal(1, 0);
  Steal(2, 0);
  EXPECT_EQ(EpochAndCompare(), 2u);
  ExpectTablesEqual();

  // Runtime-only detour: core 1 dies, its groups park on topological
  // neighbors, then it comes back. The round trip must restore the table
  // byte for byte -- that is what keeps the two sides comparable at all.
  rt_policy_.SetForcedBusy(1, true);
  uint64_t moved = director_->FailOverCore(1, &rt_policy_).total();
  EXPECT_GT(moved, 0u);
  rt_policy_.SetForcedBusy(1, false);
  EXPECT_EQ(moved, director_->RecoverCore(1));
  ExpectTablesEqual();

  // And the next shared epoch still makes identical decisions.
  Steal(3, 0);
  Steal(3, 2);
  EpochAndCompare();
  ExpectTablesEqual();
}

TEST_F(SteerParityTest, RandomizedHistoryStaysInLockstep) {
  std::mt19937 rng(20120410);  // EuroSys 2012, for a stable seed
  std::uniform_int_distribution<int> core_dist(0, kCores - 1);
  std::uniform_int_distribution<int> len_dist(0, kMaxLocalLen);
  std::uniform_int_distribution<int> kind_dist(0, 3);

  size_t total_moves = 0;
  for (uint64_t epoch = 1; epoch <= 50; ++epoch) {
    for (int event = 0; event < 40; ++event) {
      CoreId a = core_dist(rng);
      CoreId b = core_dist(rng);
      switch (kind_dist(rng)) {
        case 0:
          Enqueue(a, static_cast<size_t>(len_dist(rng)));
          break;
        case 1:
          Dequeue(a, static_cast<size_t>(len_dist(rng)));
          break;
        default:
          if (a != b) {
            Steal(a, b);
          }
          break;
      }
    }
    total_moves += EpochAndCompare();
    ExpectTablesEqual();
  }
  // The history above steals constantly; parity with zero movement would be
  // vacuous.
  EXPECT_GT(total_moves, 0u);
}

}  // namespace
}  // namespace steer
}  // namespace affinity
