// BalancePolicy: the load-balancing decision surface of Affinity-Accept
// (paper Section 3.3.1), extracted so the discrete-event simulator
// (src/stack/listen_socket.cc) and the real-socket runtime (src/rt/) drive
// byte-for-byte identical watermark / EWMA / proportional-share logic.
// ServeAffinityOrder (below) is the order both sides consult it in when
// they take a connection, so that sequence exists once too.
//
// Two adapters are provided:
//  - WatermarkBalancePolicy: the paper's policy (BusyTracker + StealPolicy),
//    single-threaded, used directly by the simulator.
//  - LockedBalancePolicy: wraps a WatermarkBalancePolicy behind one mutex so
//    the runtime's reactor threads can share it. Decisions are identical to
//    the wrapped policy given the same event sequence.

#ifndef AFFINITY_SRC_BALANCE_BALANCE_POLICY_H_
#define AFFINITY_SRC_BALANCE_BALANCE_POLICY_H_

#include <cstdint>
#include <functional>
#include <mutex>

#include "src/balance/busy_tracker.h"
#include "src/balance/steal_policy.h"
#include "src/mem/cacheline.h"

namespace affinity {

// Tuning knobs shared by every adapter (defaults are the paper's settings).
struct BalanceTuning {
  int steal_ratio = 5;           // 5 local : 1 stolen
  double high_watermark = 0.75;  // fraction of max local queue length
  double low_watermark = 0.10;
};

class BalancePolicy {
 public:
  virtual ~BalancePolicy() = default;

  // --- busy tracking (Section 3.3.1, "Tracking busy cores") ---

  // A connection landed on `core`'s accept queue; `len_after` includes it.
  // Returns true if the core's busy bit flipped (callers charge a bit-vector
  // write in the simulator; the runtime just uses the decision).
  virtual bool OnEnqueue(CoreId core, size_t len_after) = 0;

  // A connection left `core`'s accept queue. Returns true if the busy bit
  // flipped.
  virtual bool OnDequeue(CoreId core, size_t len_after) = 0;

  // Batched reporting: the runtime's reactor drains accept4 (or serves) in
  // batches and reports each touched queue ONCE per batch -- one EWMA/
  // watermark update with the post-batch length instead of one per
  // connection, so the policy's shared state is touched per batch, not per
  // SYN. With batch size 1 the decisions are identical to the per-
  // connection hooks. `count` is the number of connections the batch moved.
  virtual bool OnEnqueueBatch(CoreId core, size_t count, size_t len_after) {
    (void)count;
    return OnEnqueue(core, len_after);
  }
  virtual bool OnDequeueBatch(CoreId core, size_t count, size_t len_after) {
    (void)count;
    return OnDequeue(core, len_after);
  }

  virtual bool IsBusy(CoreId core) const = 0;
  virtual bool AnyBusy() const = 0;

  // --- failure domains (src/fault watchdog failover) ---

  // Pins `core`'s busy bit on regardless of its watermarks: failover marks a
  // dead reactor permanently busy so peers steal its ring dry and migration
  // treats it as a victim only; recovery lifts the pin and the watermark
  // state underneath regains authority. Default: unsupported, no-op (the
  // simulator has no failure domains).
  virtual void SetForcedBusy(CoreId core, bool forced) {
    (void)core;
    (void)forced;
  }
  virtual bool IsForcedBusy(CoreId core) const {
    (void)core;
    return false;
  }

  // The EWMA queue length driving `core`'s low-watermark check; exposed for
  // decision tracing (obs::TraceRing records it at every busy flip).
  virtual double EwmaValue(CoreId core) const = 0;

  // --- connection stealing (Section 3.3.1, "Connection stealing") ---

  // Proportional share: with local connections available and a busy victim
  // in sight, should this accept() go remote? Advances the 5:1 counter.
  virtual bool ShouldStealThisTime(CoreId core) = 0;

  // Next busy victim for `thief`, round-robin one past the last victim;
  // kNoCore when no other core is busy.
  virtual CoreId PickBusyVictim(CoreId thief) = 0;

  // Round-robin scan over all remote cores with a queue-nonempty predicate
  // (the polling path: local queue, then busy remotes, then any remote).
  virtual CoreId PickAnyVictim(CoreId thief,
                               const std::function<bool(CoreId)>& has_connections) = 0;

  // Records a successful steal (feeds flow-group migration).
  virtual void OnSteal(CoreId thief, CoreId victim) = 0;

  // --- migration feed (Section 3.3.2) ---

  virtual CoreId TopVictimOf(CoreId thief) const = 0;
  virtual void ResetEpochCounts(CoreId thief) = 0;

  // This epoch's steal count of `thief` against `victim` -- the number the
  // 100 ms migration loop targets by ("the victim core from which it has
  // stolen the largest number of connections"). Exposed so migration
  // telemetry can record *why* a group moved.
  virtual uint64_t EpochSteals(CoreId thief, CoreId victim) const = 0;

  // --- accounting ---
  virtual uint64_t total_steals() const = 0;
  virtual void ResetTotalSteals() = 0;
  virtual uint64_t transitions_to_busy() const = 0;
  virtual uint64_t transitions_to_nonbusy() const = 0;
};

// The paper's policy, composed from the existing BusyTracker and StealPolicy.
// Not thread-safe: the simulator runs it from one event loop.
class WatermarkBalancePolicy : public BalancePolicy {
 public:
  // `topo` (not owned, may be null = flat round-robin) orders each thief's
  // victim scan by hardware distance; it must outlive the policy.
  WatermarkBalancePolicy(int num_cores, int max_local_len,
                         const BalanceTuning& tuning = BalanceTuning{},
                         const topo::Topology* topo = nullptr);

  bool OnEnqueue(CoreId core, size_t len_after) override;
  bool OnDequeue(CoreId core, size_t len_after) override;
  bool IsBusy(CoreId core) const override;
  bool AnyBusy() const override;
  void SetForcedBusy(CoreId core, bool forced) override;
  bool IsForcedBusy(CoreId core) const override;
  double EwmaValue(CoreId core) const override;
  bool ShouldStealThisTime(CoreId core) override;
  CoreId PickBusyVictim(CoreId thief) override;
  CoreId PickAnyVictim(CoreId thief,
                       const std::function<bool(CoreId)>& has_connections) override;
  void OnSteal(CoreId thief, CoreId victim) override;
  CoreId TopVictimOf(CoreId thief) const override;
  void ResetEpochCounts(CoreId thief) override;
  uint64_t EpochSteals(CoreId thief, CoreId victim) const override;
  uint64_t total_steals() const override;
  void ResetTotalSteals() override;
  uint64_t transitions_to_busy() const override;
  uint64_t transitions_to_nonbusy() const override;

  // The underlying trackers, for tests and simulator cost accounting.
  BusyTracker& busy() { return busy_; }
  const BusyTracker& busy() const { return busy_; }
  StealPolicy& steals() { return steals_; }
  const StealPolicy& steals() const { return steals_; }
  const topo::Topology* topology() const { return topo_; }

 private:
  int num_cores_;
  const topo::Topology* topo_;
  BusyTracker busy_;
  StealPolicy steals_;
};

// Thread-safe adapter for the runtime: every call takes one mutex. With the
// same (serialized) event sequence it produces the same decisions as the
// wrapped WatermarkBalancePolicy -- tests/balance/balance_policy_test.cc
// holds the two in lock-step.
class LockedBalancePolicy : public BalancePolicy {
 public:
  LockedBalancePolicy(int num_cores, int max_local_len,
                      const BalanceTuning& tuning = BalanceTuning{},
                      const topo::Topology* topo = nullptr);

  bool OnEnqueue(CoreId core, size_t len_after) override;
  bool OnDequeue(CoreId core, size_t len_after) override;
  bool IsBusy(CoreId core) const override;
  bool AnyBusy() const override;
  void SetForcedBusy(CoreId core, bool forced) override;
  bool IsForcedBusy(CoreId core) const override;
  double EwmaValue(CoreId core) const override;
  bool ShouldStealThisTime(CoreId core) override;
  CoreId PickBusyVictim(CoreId thief) override;
  CoreId PickAnyVictim(CoreId thief,
                       const std::function<bool(CoreId)>& has_connections) override;
  void OnSteal(CoreId thief, CoreId victim) override;
  CoreId TopVictimOf(CoreId thief) const override;
  void ResetEpochCounts(CoreId thief) override;
  uint64_t EpochSteals(CoreId thief, CoreId victim) const override;
  uint64_t total_steals() const override;
  void ResetTotalSteals() override;
  uint64_t transitions_to_busy() const override;
  uint64_t transitions_to_nonbusy() const override;

 private:
  mutable std::mutex mu_;
  WatermarkBalancePolicy inner_;
};

// The Section 3.3.1 service order, the one copy that both the simulator's
// ListenSocket::Accept and the runtime's Reactor::ServeOne run. A non-busy
// core with stealing on and a busy core in sight goes remote first when its
// own queue is empty or the 5:1 share says so; otherwise it takes its own
// queue, then a busy victim's. Only on the way to sleep (`idle`) does it
// poll every other queue, nearest first ("Polling"). A busy core takes only
// its own queue.
//
// `pop(q)` dequeues one connection from core q's queue into the caller's
// slot and returns whether it got one; `has_connections(q)` is the polling
// scan's queue-nonempty test; `local_empty` is the caller's reading of its
// own queue. A remote pop is reported to the policy (OnSteal). Returns the
// queue the connection came from (`core` for a local one), or kNoCore.
template <typename Pop, typename HasConnections>
CoreId ServeAffinityOrder(BalancePolicy* policy, CoreId core, bool stealing, bool idle,
                          bool local_empty, Pop&& pop, HasConnections&& has_connections) {
  const bool self_busy = policy->IsBusy(core);
  const bool may_steal = stealing && !self_busy && policy->AnyBusy();
  const bool steal_first = may_steal && (local_empty || policy->ShouldStealThisTime(core));
  auto steal_from = [&](CoreId victim) {
    if (victim == kNoCore || !pop(victim)) {
      return false;
    }
    policy->OnSteal(core, victim);
    return true;
  };
  if (steal_first) {
    CoreId victim = policy->PickBusyVictim(core);
    if (steal_from(victim)) {
      return victim;
    }
  }
  if (pop(core)) {
    return core;
  }
  if (may_steal && !steal_first) {
    CoreId victim = policy->PickBusyVictim(core);
    if (steal_from(victim)) {
      return victim;
    }
  }
  if (idle && stealing && !self_busy) {
    CoreId victim = policy->PickAnyVictim(core, has_connections);
    if (steal_from(victim)) {
      return victim;
    }
  }
  return kNoCore;
}

}  // namespace affinity

#endif  // AFFINITY_SRC_BALANCE_BALANCE_POLICY_H_
