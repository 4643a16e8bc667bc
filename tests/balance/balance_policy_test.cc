// BalancePolicy tests: the simulator's BalancePolicy and the runtime's
// LockedBalancePolicy must make byte-for-byte identical decisions from
// identical event sequences -- that equivalence is what lets the
// live-socket runtime claim to execute the paper's policy, not a
// reimplementation of it. The lock must also cover every call the runtime
// makes through a BalancePolicy*.

#include "src/balance/balance_policy.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

namespace affinity {
namespace {

constexpr int kCores = 4;
constexpr int kMaxLocalLen = 100;  // high watermark 75, low watermark 10

// Deterministic pseudo-random stream (no external seeding, reproducible).
class Lcg {
 public:
  explicit Lcg(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 33;
  }

 private:
  uint64_t state_;
};

TEST(BalancePolicyTest, FiveToOneProportionalShare) {
  BalancePolicy sim(kCores, kMaxLocalLen);
  LockedBalancePolicy rt(kCores, kMaxLocalLen);

  // With the paper's 5:1 tuning, exactly one accept in every six goes
  // remote, on both policies, in the same positions.
  int sim_steals = 0;
  int rt_steals = 0;
  for (int i = 1; i <= 60; ++i) {
    bool sim_decision = sim.ShouldStealThisTime(0);
    bool rt_decision = rt.ShouldStealThisTime(0);
    EXPECT_EQ(sim_decision, rt_decision) << "call " << i;
    EXPECT_EQ(sim_decision, i % 6 == 0) << "call " << i;
    sim_steals += sim_decision ? 1 : 0;
    rt_steals += rt_decision ? 1 : 0;
  }
  EXPECT_EQ(sim_steals, 10);
  EXPECT_EQ(rt_steals, 10);

  // The share counter is per-core: core 1's cadence is independent.
  EXPECT_FALSE(sim.ShouldStealThisTime(1));
  EXPECT_FALSE(rt.ShouldStealThisTime(1));
}

TEST(BalancePolicyTest, CustomStealRatioRespected) {
  BalanceTuning tuning;
  tuning.steal_ratio = 2;  // 2 local : 1 remote
  BalancePolicy sim(kCores, kMaxLocalLen, tuning);
  LockedBalancePolicy rt(kCores, kMaxLocalLen, tuning);
  for (int i = 1; i <= 12; ++i) {
    bool expected = i % 3 == 0;
    EXPECT_EQ(sim.ShouldStealThisTime(0), expected) << "call " << i;
    EXPECT_EQ(rt.ShouldStealThisTime(0), expected) << "call " << i;
  }
}

TEST(BalancePolicyTest, WatermarkTransitionsMatchOnBothAdapters) {
  BalancePolicy sim(kCores, kMaxLocalLen);
  LockedBalancePolicy rt(kCores, kMaxLocalLen);

  // Below the 75% high watermark: not busy.
  EXPECT_FALSE(sim.OnEnqueueBatch(0, 1, 75));
  EXPECT_FALSE(rt.OnEnqueueBatch(0, 1, 75));
  EXPECT_FALSE(sim.IsBusy(0));
  EXPECT_FALSE(rt.IsBusy(0));

  // Crossing it flips the bit (both policies report the flip).
  EXPECT_TRUE(sim.OnEnqueueBatch(0, 1, 76));
  EXPECT_TRUE(rt.OnEnqueueBatch(0, 1, 76));
  EXPECT_TRUE(sim.IsBusy(0));
  EXPECT_TRUE(rt.IsBusy(0));
  EXPECT_TRUE(sim.AnyBusy());
  EXPECT_TRUE(rt.AnyBusy());
  EXPECT_EQ(sim.transitions_to_busy(), 1u);
  EXPECT_EQ(rt.transitions_to_busy(), 1u);

  // An instantaneous dip does NOT clear the bit: the EWMA (seeded at 76)
  // must first decay below the 10% low watermark.
  EXPECT_FALSE(sim.OnDequeueBatch(0, 1, 0));
  EXPECT_FALSE(rt.OnDequeueBatch(0, 1, 0));
  EXPECT_TRUE(sim.IsBusy(0));
  EXPECT_TRUE(rt.IsBusy(0));

  // Drain: both policies shed the busy bit on the same event.
  int sim_cleared_at = -1;
  int rt_cleared_at = -1;
  for (int i = 0; i < 2000 && (sim_cleared_at < 0 || rt_cleared_at < 0); ++i) {
    if (sim.OnDequeueBatch(0, 1, 0) && sim_cleared_at < 0) {
      sim_cleared_at = i;
    }
    if (rt.OnDequeueBatch(0, 1, 0) && rt_cleared_at < 0) {
      rt_cleared_at = i;
    }
  }
  EXPECT_GE(sim_cleared_at, 0);
  EXPECT_EQ(sim_cleared_at, rt_cleared_at);
  EXPECT_FALSE(sim.IsBusy(0));
  EXPECT_FALSE(rt.IsBusy(0));
  EXPECT_EQ(sim.transitions_to_nonbusy(), 1u);
  EXPECT_EQ(rt.transitions_to_nonbusy(), 1u);
}

TEST(BalancePolicyTest, VictimSelectionRoundRobinMatches) {
  BalancePolicy sim(kCores, kMaxLocalLen);
  LockedBalancePolicy rt(kCores, kMaxLocalLen);

  // Make cores 1 and 3 busy on both policies.
  for (CoreId busy_core : {1, 3}) {
    EXPECT_TRUE(sim.OnEnqueueBatch(busy_core, 1, 80));
    EXPECT_TRUE(rt.OnEnqueueBatch(busy_core, 1, 80));
  }

  // Round-robin one past the last victim: 1, 3, 1, 3, ... for thief 0.
  for (int i = 0; i < 6; ++i) {
    CoreId sim_victim = sim.PickBusyVictim(0);
    CoreId rt_victim = rt.PickBusyVictim(0);
    EXPECT_EQ(sim_victim, rt_victim) << "pick " << i;
    EXPECT_EQ(sim_victim, i % 2 == 0 ? 1 : 3) << "pick " << i;
    sim.OnSteal(0, sim_victim);
    rt.OnSteal(0, rt_victim);
  }
  EXPECT_EQ(sim.total_steals(), 6u);
  EXPECT_EQ(rt.total_steals(), 6u);
  EXPECT_EQ(sim.TopVictimOf(0), rt.TopVictimOf(0));

  // PickAnyVictim honors the predicate identically (only core 2 claims
  // connections here) and never returns the thief itself.
  auto only_core2 = [](CoreId c) { return c == 2; };
  EXPECT_EQ(sim.PickAnyVictim(0, only_core2), 2);
  EXPECT_EQ(rt.PickAnyVictim(0, only_core2), 2);
  auto only_thief = [](CoreId c) { return c == 0; };
  EXPECT_EQ(sim.PickAnyVictim(0, only_thief), kNoCore);
  EXPECT_EQ(rt.PickAnyVictim(0, only_thief), kNoCore);
}

// Lock-step fuzz: a long randomized event sequence applied to both policies
// must produce identical observable behaviour at every single step.
TEST(BalancePolicyTest, LockStepFuzzParity) {
  BalancePolicy sim(kCores, kMaxLocalLen);
  LockedBalancePolicy rt(kCores, kMaxLocalLen);
  Lcg rng(0xA11FEEDu);
  std::vector<size_t> queue_len(kCores, 0);

  for (int step = 0; step < 20000; ++step) {
    CoreId core = static_cast<CoreId>(rng.Next() % kCores);
    switch (rng.Next() % 6) {
      case 0:
      case 1: {  // enqueue burst
        size_t burst = 1 + rng.Next() % 40;
        for (size_t i = 0; i < burst; ++i) {
          size_t& len = queue_len[static_cast<size_t>(core)];
          if (len >= static_cast<size_t>(kMaxLocalLen)) {
            break;
          }
          ++len;
          ASSERT_EQ(sim.OnEnqueueBatch(core, 1, len), rt.OnEnqueueBatch(core, 1, len))
              << "step " << step;
        }
        break;
      }
      case 2:
      case 3: {  // dequeue burst
        size_t burst = 1 + rng.Next() % 40;
        for (size_t i = 0; i < burst; ++i) {
          size_t& len = queue_len[static_cast<size_t>(core)];
          if (len == 0) {
            break;
          }
          --len;
          ASSERT_EQ(sim.OnDequeueBatch(core, 1, len), rt.OnDequeueBatch(core, 1, len))
              << "step " << step;
        }
        break;
      }
      case 4: {  // steal attempt
        ASSERT_EQ(sim.ShouldStealThisTime(core), rt.ShouldStealThisTime(core)) << "step " << step;
        break;
      }
      case 5: {  // victim picks
        CoreId sim_victim = sim.PickBusyVictim(core);
        CoreId rt_victim = rt.PickBusyVictim(core);
        ASSERT_EQ(sim_victim, rt_victim) << "step " << step;
        if (sim_victim != kNoCore) {
          sim.OnSteal(core, sim_victim);
          rt.OnSteal(core, rt_victim);
        }
        break;
      }
    }
    ASSERT_EQ(sim.AnyBusy(), rt.AnyBusy()) << "step " << step;
    for (CoreId c = 0; c < kCores; ++c) {
      ASSERT_EQ(sim.IsBusy(c), rt.IsBusy(c)) << "step " << step << " core " << c;
    }
  }
  EXPECT_EQ(sim.total_steals(), rt.total_steals());
  EXPECT_EQ(sim.transitions_to_busy(), rt.transitions_to_busy());
  EXPECT_EQ(sim.transitions_to_nonbusy(), rt.transitions_to_nonbusy());
  EXPECT_GT(sim.total_steals(), 0u);
  EXPECT_GT(sim.transitions_to_busy(), 0u);
}

TEST(BalancePolicyTest, ForcedBusyOverridesWatermarks) {
  BalancePolicy policy(kCores, kMaxLocalLen);
  EXPECT_FALSE(policy.IsBusy(2));
  EXPECT_FALSE(policy.AnyBusy());

  // The failover pin: busy regardless of an empty queue, and visible to
  // victim picking (a forced-busy core is exactly what thieves drain).
  policy.SetForcedBusy(2, true);
  EXPECT_TRUE(policy.IsForcedBusy(2));
  EXPECT_TRUE(policy.IsBusy(2));
  EXPECT_TRUE(policy.AnyBusy());
  EXPECT_EQ(2, policy.PickBusyVictim(0));

  // Lifting the pin restores the watermark state underneath (still empty,
  // still non-busy).
  policy.SetForcedBusy(2, false);
  EXPECT_FALSE(policy.IsForcedBusy(2));
  EXPECT_FALSE(policy.IsBusy(2));
  EXPECT_FALSE(policy.AnyBusy());
  EXPECT_EQ(kNoCore, policy.PickBusyVictim(0));
}

TEST(BalancePolicyTest, ForcedBusySuppressesFlipReportsButNotState) {
  BalancePolicy policy(kCores, kMaxLocalLen);
  policy.SetForcedBusy(1, true);

  // While forced, crossing the high watermark cannot flip the effective bit
  // (it is already pinned on), so no flip is reported...
  EXPECT_FALSE(policy.OnEnqueueBatch(1, 1, static_cast<size_t>(kMaxLocalLen)));
  uint64_t to_busy = policy.transitions_to_busy();

  // ...but the underlying watermark state did update: after the pin lifts,
  // the core is still busy on its own merits until the EWMA decays.
  policy.SetForcedBusy(1, false);
  EXPECT_TRUE(policy.IsBusy(1));
  // The EWMA (seeded at the spike) needs ~2*max_local_len*ln(high/low)
  // empty-queue updates to decay below the low watermark.
  for (int i = 0; i < 1000 && policy.IsBusy(1); ++i) {
    EXPECT_FALSE(policy.IsForcedBusy(1));
    policy.OnDequeueBatch(1, 1, 0);
    policy.OnEnqueueBatch(1, 1, 0);
  }
  EXPECT_FALSE(policy.IsBusy(1));
  EXPECT_GE(policy.transitions_to_busy(), to_busy);
}

TEST(BalancePolicyTest, ForcedBusyLockedAdapterMatches) {
  LockedBalancePolicy policy(kCores, kMaxLocalLen);
  policy.SetForcedBusy(3, true);
  EXPECT_TRUE(policy.IsBusy(3));
  EXPECT_TRUE(policy.IsForcedBusy(3));
  EXPECT_TRUE(policy.AnyBusy());
  policy.SetForcedBusy(3, false);
  EXPECT_FALSE(policy.IsBusy(3));
  EXPECT_FALSE(policy.AnyBusy());
}

// Four threads drive every virtual method through the base pointer the
// runtime holds. Each override takes the mutex, so the threads never touch
// the policy's state at once: an override that went missing would run the
// unlocked body, which TSan reports as a race and which can lose a steal.
TEST(BalancePolicyTest, LockedPolicySerializesThroughTheBasePointer) {
  LockedBalancePolicy locked(kCores, kMaxLocalLen);
  BalancePolicy* policy = &locked;
  constexpr int kThreads = 4;
  constexpr int kRounds = 2000;
  std::vector<uint64_t> steals(kThreads, 0);
  std::vector<uint64_t> sinks(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([policy, t, &steals, &sinks] {
      const CoreId me = static_cast<CoreId>(t);
      const CoreId peer = static_cast<CoreId>((t + 1) % kCores);
      uint64_t sink = 0;
      for (int i = 0; i < kRounds; ++i) {
        // Queue lengths sweep past the high watermark, so busy bits flip.
        size_t len = static_cast<size_t>(i % kMaxLocalLen);
        sink += policy->OnEnqueueBatch(me, 1, len) ? 1 : 0;
        sink += policy->OnDequeueBatch(me, 1, len / 2) ? 1 : 0;
        policy->SetForcedBusy(me, i % 64 == 0);
        sink += policy->IsBusy(peer) ? 1 : 0;
        sink += policy->AnyBusy() ? 1 : 0;
        sink += policy->EwmaValue(peer) > 0.0 ? 1 : 0;
        sink += policy->ShouldStealThisTime(me) ? 1 : 0;
        CoreId victim = policy->PickBusyVictim(me);
        if (victim != kNoCore) {
          policy->OnSteal(me, victim);
          ++steals[static_cast<size_t>(t)];
        }
        victim = policy->PickAnyVictim(me, [](CoreId c) { return c % 2 == 0; });
        if (victim != kNoCore) {
          policy->OnSteal(me, victim);
          ++steals[static_cast<size_t>(t)];
        }
        if (i % 100 == 99) {
          CoreId top = policy->TopVictimOf(me);
          if (top != kNoCore) {
            sink += policy->EpochSteals(me, top);
          }
          policy->ResetEpochCounts(me);
        }
      }
      sinks[static_cast<size_t>(t)] = sink;
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  uint64_t counted = 0;
  for (uint64_t n : steals) {
    counted += n;
  }
  EXPECT_GT(counted, 0u);
  EXPECT_EQ(locked.total_steals(), counted);
}

}  // namespace
}  // namespace affinity
