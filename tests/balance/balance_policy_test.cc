// BalancePolicy tests. One lock-free class serves the simulator's single
// event loop and the runtime's reactor threads, so the same event sequence
// must yield the same decisions whether one thread drives every core or
// each core's events run on the thread bound to that core; and under real
// concurrency every busy flip and every steal must be counted exactly once.

#include "src/balance/balance_policy.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
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

// A thread bound (BindOwner) to one core of a policy. Run() hands it one
// event and returns once the event has run there.
class BoundCoreThread {
 public:
  BoundCoreThread(BalancePolicy* policy, CoreId core)
      : thread_([this, policy, core] {
          policy->BindOwner(core);
          Loop();
        }) {}
  ~BoundCoreThread() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  BoundCoreThread(const BoundCoreThread&) = delete;
  BoundCoreThread& operator=(const BoundCoreThread&) = delete;

  void Run(const std::function<void()>& event) {
    std::unique_lock<std::mutex> lock(mu_);
    event_ = &event;
    cv_.notify_all();
    cv_.wait(lock, [this] { return event_ == nullptr; });
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock, [this] { return event_ != nullptr || stop_; });
      if (event_ == nullptr) {
        return;
      }
      (*event_)();
      event_ = nullptr;
      cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  const std::function<void()>* event_ = nullptr;
  bool stop_ = false;
  std::thread thread_;  // last: starts after the fields it uses
};

TEST(BalancePolicyTest, FiveToOneProportionalShare) {
  BalancePolicy policy(kCores, kMaxLocalLen);

  // With the paper's 5:1 tuning, exactly one accept in every six goes
  // remote.
  int steals = 0;
  for (int i = 1; i <= 60; ++i) {
    bool decision = policy.ShouldStealThisTime(0);
    EXPECT_EQ(decision, i % 6 == 0) << "call " << i;
    steals += decision ? 1 : 0;
  }
  EXPECT_EQ(steals, 10);

  // The share counter is per-core: core 1's cadence is independent.
  EXPECT_FALSE(policy.ShouldStealThisTime(1));
}

TEST(BalancePolicyTest, CustomStealRatioRespected) {
  BalanceTuning tuning;
  tuning.steal_ratio = 2;  // 2 local : 1 remote
  BalancePolicy policy(kCores, kMaxLocalLen, tuning);
  for (int i = 1; i <= 12; ++i) {
    EXPECT_EQ(policy.ShouldStealThisTime(0), i % 3 == 0) << "call " << i;
  }
}

// Both adapters -- the simulator's ListenSocket and the runtime's Reactor --
// hold this one class, so one policy's transitions are both sides'.
TEST(BalancePolicyTest, WatermarkTransitionsMatchOnBothAdapters) {
  BalancePolicy policy(kCores, kMaxLocalLen);

  // Below the 75% high watermark: not busy.
  EXPECT_FALSE(policy.OnEnqueueBatch(0, 1, 75));
  EXPECT_FALSE(policy.IsBusy(0));

  // Crossing it flips the bit, and the flip is reported.
  EXPECT_TRUE(policy.OnEnqueueBatch(0, 1, 76));
  EXPECT_TRUE(policy.IsBusy(0));
  EXPECT_TRUE(policy.AnyBusy());
  EXPECT_EQ(policy.transitions_to_busy(), 1u);

  // An instantaneous dip does NOT clear the bit: the EWMA (seeded at 76)
  // must first decay below the 10% low watermark.
  EXPECT_FALSE(policy.OnDequeueBatch(0, 1, 0));
  EXPECT_TRUE(policy.IsBusy(0));

  // Drain: exactly one dequeue report sheds the busy bit, the first after
  // which the average has decayed: 76 * (1 - 1/200)^n < 10 first at n = 405,
  // the dip above plus 404 more.
  int cleared_at = -1;
  for (int i = 0; i < 2000; ++i) {
    if (policy.OnDequeueBatch(0, 1, 0)) {
      EXPECT_LT(cleared_at, 0) << "second clear at " << i;
      cleared_at = i;
    }
  }
  EXPECT_EQ(cleared_at, 403);
  EXPECT_FALSE(policy.IsBusy(0));
  EXPECT_FALSE(policy.AnyBusy());
  EXPECT_EQ(policy.transitions_to_nonbusy(), 1u);
}

TEST(BalancePolicyTest, VictimSelectionRoundRobinMatches) {
  BalancePolicy policy(kCores, kMaxLocalLen);

  // Make cores 1 and 3 busy.
  for (CoreId busy_core : {1, 3}) {
    EXPECT_TRUE(policy.OnEnqueueBatch(busy_core, 1, 80));
  }

  // Round-robin one past the last victim: 1, 3, 1, 3, ... for thief 0.
  for (int i = 0; i < 6; ++i) {
    CoreId victim = policy.PickBusyVictim(0);
    EXPECT_EQ(victim, i % 2 == 0 ? 1 : 3) << "pick " << i;
    policy.OnSteal(0, victim);
  }
  EXPECT_EQ(policy.total_steals(), 6u);
  EXPECT_EQ(policy.EpochSteals(0, 1), 3u);
  EXPECT_EQ(policy.EpochSteals(0, 3), 3u);
  EXPECT_EQ(policy.TopVictimOf(0), 1);  // a tie goes to the lower core

  // PickAnyVictim honors the predicate (only core 2 claims connections
  // here) and never returns the thief itself.
  auto only_core2 = [](CoreId c) { return c == 2; };
  EXPECT_EQ(policy.PickAnyVictim(0, only_core2), 2);
  auto only_thief = [](CoreId c) { return c == 0; };
  EXPECT_EQ(policy.PickAnyVictim(0, only_thief), kNoCore);
}

// Lock-step fuzz: a long randomized event sequence applied to two policies,
// one driven for every core from the test thread (the simulator's shape),
// the other with each event run on the thread bound to that event's core
// (the runtime's shape), one event at a time. Every decision must match at
// every single step.
TEST(BalancePolicyTest, LockStepFuzzParity) {
  BalancePolicy serial(kCores, kMaxLocalLen);
  BalancePolicy bound(kCores, kMaxLocalLen);
  std::vector<std::unique_ptr<BoundCoreThread>> owners;
  for (CoreId c = 0; c < kCores; ++c) {
    owners.push_back(std::make_unique<BoundCoreThread>(&bound, c));
  }
  Lcg rng(0xA11FEEDu);
  std::vector<size_t> queue_len(kCores, 0);

  // One event: the same calls on `policy`, each decision appended to `out`.
  auto apply = [&queue_len](BalancePolicy& policy, CoreId core, uint64_t kind, size_t burst,
                            std::vector<int>* out) {
    size_t len = queue_len[static_cast<size_t>(core)];
    switch (kind) {
      case 0:
      case 1:  // enqueue burst
        for (size_t i = 0; i < burst && len < static_cast<size_t>(kMaxLocalLen); ++i) {
          out->push_back(policy.OnEnqueueBatch(core, 1, ++len));
        }
        break;
      case 2:
      case 3:  // dequeue burst
        for (size_t i = 0; i < burst && len > 0; ++i) {
          out->push_back(policy.OnDequeueBatch(core, 1, --len));
        }
        break;
      case 4:  // steal attempt
        out->push_back(policy.ShouldStealThisTime(core));
        break;
      case 5: {  // victim pick
        CoreId victim = policy.PickBusyVictim(core);
        out->push_back(victim);
        if (victim != kNoCore) {
          policy.OnSteal(core, victim);
        }
        break;
      }
    }
    return len;
  };

  for (int step = 0; step < 20000; ++step) {
    CoreId core = static_cast<CoreId>(rng.Next() % kCores);
    uint64_t kind = rng.Next() % 6;
    size_t burst = kind < 4 ? 1 + rng.Next() % 40 : 0;
    std::vector<int> serial_decisions;
    std::vector<int> bound_decisions;
    size_t len_after = apply(serial, core, kind, burst, &serial_decisions);
    owners[static_cast<size_t>(core)]->Run(
        [&] { apply(bound, core, kind, burst, &bound_decisions); });
    queue_len[static_cast<size_t>(core)] = len_after;
    ASSERT_EQ(serial_decisions, bound_decisions) << "step " << step;
    ASSERT_EQ(serial.AnyBusy(), bound.AnyBusy()) << "step " << step;
    for (CoreId c = 0; c < kCores; ++c) {
      ASSERT_EQ(serial.IsBusy(c), bound.IsBusy(c)) << "step " << step << " core " << c;
      ASSERT_EQ(serial.EwmaValue(c), bound.EwmaValue(c)) << "step " << step << " core " << c;
    }
  }
  EXPECT_EQ(serial.total_steals(), bound.total_steals());
  EXPECT_EQ(serial.transitions_to_busy(), bound.transitions_to_busy());
  EXPECT_EQ(serial.transitions_to_nonbusy(), bound.transitions_to_nonbusy());
  EXPECT_GT(serial.total_steals(), 0u);
  EXPECT_GT(serial.transitions_to_busy(), 0u);
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

// Four threads, each bound to its own core, drive every method at once.
// Each reports every core's queue, its own and its peers', the way an
// owner, a thief's pop and a re-steering push do, so EWMA updates and bit
// flips race: a spike over the high watermark opens each phase and sets
// the bits, empty-queue reports then decay the averages until every
// thread's next report tries the same clear. Every flip and every steal
// must still be counted exactly once: after the join the steal total is
// what the threads counted, and the flip balance is the number of cores
// left busy.
TEST(BalancePolicyTest, ConcurrentOwnersCountEachFlipOnce) {
  BalancePolicy policy(kCores, kMaxLocalLen);
  constexpr int kRounds = 20000;
  std::vector<uint64_t> steals(kCores, 0);
  std::vector<uint64_t> sinks(kCores, 0);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (CoreId me = 0; me < kCores; ++me) {
    threads.emplace_back([&policy, me, &steals, &sinks, &ready] {
      policy.BindOwner(me);
      ready.fetch_add(1);
      while (ready.load() < kCores) {
      }
      const CoreId peer = static_cast<CoreId>((me + 1) % kCores);
      uint64_t sink = 0;
      uint64_t stolen = 0;
      for (int i = 0; i < kRounds; ++i) {
        // Four reports per core per round decay a spike of 100 below the
        // low watermark in about 115 rounds, well inside a 256-round phase.
        const bool spike = i % 256 < 4;
        for (CoreId c = 0; c < kCores; ++c) {
          sink += (spike ? policy.OnEnqueueBatch(c, 1, kMaxLocalLen)
                         : policy.OnDequeueBatch(c, 1, 0))
                      ? 1
                      : 0;
        }
        policy.SetForcedBusy(me, i % 64 == 0);
        sink += policy.IsBusy(peer) ? 1 : 0;
        sink += policy.AnyBusy() ? 1 : 0;
        sink += policy.EwmaValue(peer) > 0.0 ? 1 : 0;
        sink += policy.ShouldStealThisTime(me) ? 1 : 0;
        CoreId victim = policy.PickBusyVictim(me);
        if (victim != kNoCore) {
          policy.OnSteal(me, victim);
          ++stolen;
        }
        victim = policy.PickAnyVictim(me, [](CoreId c) { return c % 2 == 0; });
        if (victim != kNoCore) {
          policy.OnSteal(me, victim);
          ++stolen;
        }
        if (i % 100 == 99) {
          CoreId top = policy.TopVictimOf(me);
          if (top != kNoCore) {
            sink += policy.EpochSteals(me, top);
          }
          policy.ResetEpochCounts(me);
        }
      }
      steals[static_cast<size_t>(me)] = stolen;
      sinks[static_cast<size_t>(me)] = sink;
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
  EXPECT_EQ(policy.total_steals(), counted);

  uint64_t busy_cores = 0;
  for (CoreId c = 0; c < kCores; ++c) {
    policy.SetForcedBusy(c, false);
    busy_cores += policy.IsBusy(c) ? 1 : 0;
  }
  // Every core flips in each of the 78 phases.
  EXPECT_GT(policy.transitions_to_busy(), static_cast<uint64_t>(kCores) * 50);
  EXPECT_EQ(policy.transitions_to_busy() - policy.transitions_to_nonbusy(), busy_cores);
}

// An owner-only method called for a bound core from any other thread is a
// race on that core's steal state, and aborts. Probes and reports stay open
// to every thread, and an unbound core to anyone.
TEST(BalancePolicyDeathTest, OwnerOnlyCallFromAnotherThreadAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  BalancePolicy policy(kCores, kMaxLocalLen);
  std::thread owner([&policy] { policy.BindOwner(1); });
  owner.join();
  EXPECT_FALSE(policy.OnEnqueueBatch(1, 1, 1));
  EXPECT_FALSE(policy.IsBusy(1));
  EXPECT_FALSE(policy.ShouldStealThisTime(0));
  EXPECT_DEATH(policy.ShouldStealThisTime(1), "owner-only");
  EXPECT_DEATH(policy.PickBusyVictim(1), "owner-only");
  EXPECT_DEATH(policy.OnSteal(1, 0), "owner-only");
  EXPECT_DEATH(policy.TopVictimOf(1), "owner-only");
}

}  // namespace
}  // namespace affinity
