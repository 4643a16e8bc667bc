// Tests for the connection load balancer: busy tracking (Section 3.3.1),
// stealing policy, and flow-group migration (Section 3.3.2).

#include <gtest/gtest.h>

#include "src/balance/balance_policy.h"
#include "src/balance/flow_migrator.h"
#include "src/sim/event_loop.h"

namespace affinity {
namespace {

TEST(BalancePolicyBusyTest, StartsNonBusy) {
  BalancePolicy policy(4, 64);
  for (CoreId c = 0; c < 4; ++c) {
    EXPECT_FALSE(policy.IsBusy(c));
  }
  EXPECT_FALSE(policy.AnyBusy());
}

TEST(BalancePolicyBusyTest, WatermarksFromMaxLocalLen) {
  BalancePolicy policy(4, 64);
  EXPECT_EQ(policy.high_watermark(), 48u);  // 75% of 64
  EXPECT_EQ(policy.low_watermark(), 6u);    // 10% of 64
}

TEST(BalancePolicyBusyTest, EwmaAlphaIsHalfInverseMaxLen) {
  // "EWMA's alpha parameter is set to one over twice the max local accept
  //  queue length (for example, if ... 64, alpha is set to 1/128)".
  BalancePolicy policy(1, 64);
  policy.OnEnqueueBatch(0, 1, 32);  // below the high watermark: pure EWMA update
  EXPECT_NEAR(policy.EwmaValue(0), 32.0 / 128.0, 1e-9);
}

TEST(BalancePolicyBusyTest, InstantaneousLengthAboveHighMarksBusy) {
  BalancePolicy policy(2, 64);
  EXPECT_FALSE(policy.OnEnqueueBatch(0, 1, 48));  // at the watermark: not yet
  EXPECT_TRUE(policy.OnEnqueueBatch(0, 1, 49));   // above: busy (bit flipped)
  EXPECT_TRUE(policy.IsBusy(0));
  EXPECT_TRUE(policy.AnyBusy());
  EXPECT_FALSE(policy.IsBusy(1));
}

TEST(BalancePolicyBusyTest, SecondCrossingDoesNotReflip) {
  BalancePolicy policy(2, 64);
  policy.OnEnqueueBatch(0, 1, 50);
  EXPECT_FALSE(policy.OnEnqueueBatch(0, 1, 55));  // already busy: no transition
}

TEST(BalancePolicyBusyTest, ClearingRequiresEwmaBelowLowWatermark) {
  BalancePolicy policy(2, 64);
  policy.OnEnqueueBatch(0, 1, 60);
  EXPECT_TRUE(policy.IsBusy(0));
  // One short queue sample does not clear it: the EWMA is still high.
  EXPECT_FALSE(policy.OnEnqueueBatch(0, 1, 0));
  EXPECT_TRUE(policy.IsBusy(0));
  // Sustained empty queue decays the average below 10% eventually.
  bool cleared = false;
  for (int i = 0; i < 1000 && !cleared; ++i) {
    cleared = policy.OnEnqueueBatch(0, 1, 0);
  }
  EXPECT_TRUE(cleared);
  EXPECT_FALSE(policy.IsBusy(0));
}

TEST(BalancePolicyBusyTest, OscillationDoesNotClearBusy) {
  // The hysteresis the paper designed for: bursts make the instantaneous
  // length oscillate around a high average; the busy bit must hold.
  BalancePolicy policy(2, 64);
  policy.OnEnqueueBatch(0, 1, 60);
  for (int i = 0; i < 200; ++i) {
    policy.OnEnqueueBatch(0, 1, i % 2 == 0 ? 30 : 50);
  }
  EXPECT_TRUE(policy.IsBusy(0));
}

TEST(BalancePolicyBusyTest, DequeueDecayClearsDrainedCore) {
  BalancePolicy policy(2, 64);
  policy.OnEnqueueBatch(0, 1, 60);
  bool cleared = false;
  for (int i = 0; i < 2000 && !cleared; ++i) {
    cleared = policy.OnDequeueBatch(0, 1, 0);
  }
  EXPECT_TRUE(cleared);
}

TEST(BalancePolicyBusyTest, TransitionCountersTrack) {
  BalancePolicy policy(2, 8);
  policy.OnEnqueueBatch(0, 1, 7);  // busy (high = 6)
  for (int i = 0; i < 500; ++i) {
    policy.OnDequeueBatch(0, 1, 0);
  }
  EXPECT_EQ(policy.transitions_to_busy(), 1u);
  EXPECT_EQ(policy.transitions_to_nonbusy(), 1u);
}

class WatermarkSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(WatermarkSweepTest, HighWatermarkScalesWithMaxLen) {
  int max_len = GetParam();
  BalancePolicy policy(2, max_len);
  size_t high = policy.high_watermark();
  EXPECT_FALSE(policy.OnEnqueueBatch(0, 1, high));
  EXPECT_TRUE(policy.OnEnqueueBatch(0, 1, high + 1));
}

INSTANTIATE_TEST_SUITE_P(MaxLens, WatermarkSweepTest, ::testing::Values(8, 64, 128, 256, 1024));

TEST(BalancePolicyStealTest, ProportionalShareRatioFiveToOne) {
  BalancePolicy policy(4, 8);
  int steals = 0;
  for (int i = 0; i < 60; ++i) {
    if (policy.ShouldStealThisTime(0)) {
      ++steals;
    }
  }
  EXPECT_EQ(steals, 10);  // exactly 1 in 6
}

TEST(BalancePolicyStealTest, ShareCountersArePerCore) {
  BalancePolicy policy(2, 8);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(policy.ShouldStealThisTime(0));
  }
  // Core 1's counter is independent: its 6th call steals, not earlier.
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(policy.ShouldStealThisTime(1));
  }
  EXPECT_TRUE(policy.ShouldStealThisTime(0));
  EXPECT_TRUE(policy.ShouldStealThisTime(1));
}

TEST(BalancePolicyStealTest, PickBusyVictimRoundRobin) {
  BalancePolicy policy(4, 8);
  policy.OnEnqueueBatch(1, 1, 8);
  policy.OnEnqueueBatch(3, 1, 8);
  // "starts searching for the next busy core one past the last core".
  EXPECT_EQ(policy.PickBusyVictim(0), 1);
  EXPECT_EQ(policy.PickBusyVictim(0), 3);
  EXPECT_EQ(policy.PickBusyVictim(0), 1);
}

TEST(BalancePolicyStealTest, NoBusyVictim) {
  BalancePolicy policy(4, 8);
  EXPECT_EQ(policy.PickBusyVictim(0), kNoCore);
}

TEST(BalancePolicyStealTest, NeverPicksSelf) {
  BalancePolicy policy(2, 8);
  policy.OnEnqueueBatch(0, 1, 8);  // the thief itself is busy
  EXPECT_EQ(policy.PickBusyVictim(0), kNoCore);
}

TEST(BalancePolicyStealTest, StealCountsAndTopVictim) {
  BalancePolicy policy(4, 8);
  policy.OnSteal(0, 1);
  policy.OnSteal(0, 2);
  policy.OnSteal(0, 2);
  EXPECT_EQ(policy.EpochSteals(0, 2), 2u);
  EXPECT_EQ(policy.TopVictimOf(0), 2);
  EXPECT_EQ(policy.TopVictimOf(3), kNoCore);
  EXPECT_EQ(policy.total_steals(), 3u);
}

TEST(BalancePolicyStealTest, ResetEpochClearsOneThief) {
  BalancePolicy policy(4, 8);
  policy.OnSteal(0, 1);
  policy.OnSteal(2, 1);
  policy.ResetEpochCounts(0);
  EXPECT_EQ(policy.TopVictimOf(0), kNoCore);
  EXPECT_EQ(policy.TopVictimOf(2), 1);  // other thieves unaffected
}

TEST(BalancePolicyStealTest, PickAnyVictimUsesPredicate) {
  BalancePolicy policy(4, 8);
  CoreId victim = policy.PickAnyVictim(0, [](CoreId c) { return c == 2; });
  EXPECT_EQ(victim, 2);
  victim = policy.PickAnyVictim(0, [](CoreId) { return false; });
  EXPECT_EQ(victim, kNoCore);
}

class FlowMigratorTest : public ::testing::Test {
 protected:
  FlowMigratorTest() {
    config_.num_rings = 4;
    config_.num_flow_groups = 16;
    nic_ = std::make_unique<SimNic>(config_, &loop_);
    nic_->ProgramFlowGroupsRoundRobin();
    migrator_ = std::make_unique<FlowGroupMigrator>(nic_.get(), [](CoreId c) { return c; });
  }

  EventLoop loop_;
  NicConfig config_;
  std::unique_ptr<SimNic> nic_;
  std::unique_ptr<FlowGroupMigrator> migrator_;
};

TEST_F(FlowMigratorTest, MigratesOneGroupFromTopVictim) {
  BalancePolicy policy(4, 8);
  policy.OnEnqueueBatch(3, 1, 8);  // core 3 busy
  policy.OnSteal(0, 3);
  policy.OnSteal(0, 3);

  Cycles cost = migrator_->RunEpoch(loop_.Now(), &policy, 4);
  EXPECT_EQ(cost, FdirTable::kInsertCost);
  ASSERT_EQ(migrator_->migrations(), 1u);
  const MigrationRecord& rec = migrator_->history()[0];
  EXPECT_EQ(rec.from_core, 3);
  EXPECT_EQ(rec.to_core, 0);
  EXPECT_EQ(nic_->RingOfFlowGroup(rec.group), 0);
  // Epoch counts were consumed.
  EXPECT_EQ(policy.TopVictimOf(0), kNoCore);
}

TEST_F(FlowMigratorTest, BusyCoresDoNotPull) {
  BalancePolicy policy(4, 8);
  policy.OnEnqueueBatch(0, 1, 8);  // the would-be thief is itself busy
  policy.OnSteal(0, 3);
  migrator_->RunEpoch(loop_.Now(), &policy, 4);
  EXPECT_EQ(migrator_->migrations(), 0u);
}

TEST_F(FlowMigratorTest, NoStealsNoMigration) {
  BalancePolicy policy(4, 8);
  migrator_->RunEpoch(loop_.Now(), &policy, 4);
  EXPECT_EQ(migrator_->migrations(), 0u);
}

TEST_F(FlowMigratorTest, RepeatedEpochsDrainVictimGroups) {
  BalancePolicy policy(4, 8);
  // Victim 3 starts with 4 of 16 groups. Three epochs move three of them.
  for (int epoch = 0; epoch < 3; ++epoch) {
    policy.OnSteal(0, 3);
    migrator_->RunEpoch(loop_.Now(), &policy, 4);
  }
  int remaining = 0;
  for (uint32_t g = 0; g < 16; ++g) {
    if (nic_->RingOfFlowGroup(g) == 3) {
      ++remaining;
    }
  }
  EXPECT_EQ(remaining, 1);
  EXPECT_EQ(migrator_->migrations(), 3u);
}

TEST_F(FlowMigratorTest, PickGroupRotates) {
  uint32_t g1 = 0;
  uint32_t g2 = 0;
  ASSERT_TRUE(migrator_->PickGroupOnRing(2, &g1));
  ASSERT_TRUE(migrator_->PickGroupOnRing(2, &g2));
  EXPECT_NE(g1, g2);
  EXPECT_EQ(nic_->RingOfFlowGroup(g1), 2);
  EXPECT_EQ(nic_->RingOfFlowGroup(g2), 2);
}

TEST_F(FlowMigratorTest, PickGroupFailsForEmptyRing) {
  // Move everything off ring 1 first.
  for (uint32_t g = 0; g < 16; ++g) {
    if (nic_->RingOfFlowGroup(g) == 1) {
      nic_->MigrateFlowGroup(g, 0);
    }
  }
  uint32_t group = 0;
  EXPECT_FALSE(migrator_->PickGroupOnRing(1, &group));
}

TEST(FlowMigratorConfigTest, DefaultPeriodIs100Ms) {
  EXPECT_EQ(FlowGroupMigrator::kDefaultPeriod, MsToCycles(100));
}

}  // namespace
}  // namespace affinity
