// BalancePolicy: the load balancer of Affinity-Accept (paper Section 3.3.1)
// for one listen socket, in one class, so the discrete-event simulator
// (src/stack/listen_socket.cc) and the real-socket runtime (src/rt/) run the
// same watermark / EWMA / proportional-share decisions. ServeAffinityOrder
// (below) is the order both sides consult it in when they take a
// connection, so that sequence exists once too.
//
// Tracking busy cores. Each core judges itself busy from its own accept
// queue. The listen() backlog is split evenly across cores ("max local
// accept queue length"). An instantaneous length above the high watermark
// (75% of it) marks the core busy. An EWMA of the length, with alpha =
// 1 / (2 * max_local_len), must fall below the low watermark (10%) before
// the core is non-busy again: enqueue bursts make the instantaneous length
// oscillate, the average does not. One busy bit per core lets a non-busy
// core find victims with one bit-vector read.
//
// Connection stealing. Non-busy cores steal from busy ones at a
// proportional share between local and stolen connections (the paper
// settles on 5 local : 1 stolen). Victims are chosen nearest-first by
// hardware distance (same physical core, then same LLC, then same node,
// then remote -- the Table-1 cost cliff), round-robin within each distance
// class: "Each core keeps a count of the last remote core it stole from,
// and starts searching for the next busy core one past the last core".
// With no topology, or a flat one, there is a single class of every other
// core and the scan is the paper's plain round-robin. Busy cores never
// steal. Per-victim steal counts feed flow-group migration (Section 3.3.2,
// src/balance/migration_epoch.h).
//
// BalancePolicy itself is single-threaded: the simulator owns one and runs
// it from one event loop. The runtime's reactors share a
// LockedBalancePolicy, which serializes the virtual methods under one mutex.
// The virtual methods are exactly the calls the reactors,
// steer::FlowDirector and ServeAffinityOrder make through a BalancePolicy*.
// The reporting accessors at the end of the class are not virtual and not
// locked: only the simulator and tests read them, never the runtime.

#ifndef AFFINITY_SRC_BALANCE_BALANCE_POLICY_H_
#define AFFINITY_SRC_BALANCE_BALANCE_POLICY_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "src/mem/cacheline.h"
#include "src/sim/stats.h"
#include "src/topo/topology.h"

namespace affinity {

// Tuning knobs (defaults are the paper's settings).
struct BalanceTuning {
  int steal_ratio = 5;           // 5 local : 1 stolen
  double high_watermark = 0.75;  // fraction of max local queue length
  double low_watermark = 0.10;
};

class BalancePolicy {
 public:
  // `max_local_len` is the per-core share of the listen() backlog. `topo`
  // (not owned, may be null = flat round-robin) orders each thief's victim
  // scan by hardware distance; it must describe at least num_cores cores
  // and outlive the policy.
  BalancePolicy(int num_cores, int max_local_len, const BalanceTuning& tuning = BalanceTuning{},
                const topo::Topology* topo = nullptr);
  BalancePolicy(const BalancePolicy&) = delete;
  BalancePolicy& operator=(const BalancePolicy&) = delete;
  virtual ~BalancePolicy() = default;

  // --- busy tracking (Section 3.3.1, "Tracking busy cores") ---

  // `count` connections landed on `core`'s accept queue; `len_after`
  // includes them. The runtime reports each touched queue once per batch,
  // the simulator each connection as a batch of one; the decision reads
  // only the post-batch length. Updates the EWMA and both watermark checks.
  // Returns true if the core's busy bit flipped (the simulator charges a
  // bit-vector write; the runtime records the flip).
  virtual bool OnEnqueueBatch(CoreId core, size_t count, size_t len_after);

  // `count` connections left `core`'s accept queue. The paper moves the
  // EWMA only on enqueue; this also decays it on dequeue, so that a core
  // whose flow groups were all migrated away (no more enqueues) can still
  // shed its busy bit once drained. With a steady enqueue stream the
  // behaviour is the same. Returns true if the busy bit flipped.
  virtual bool OnDequeueBatch(CoreId core, size_t count, size_t len_after);

  virtual bool IsBusy(CoreId core) const;
  // Any core busy right now? (one bit-vector read)
  virtual bool AnyBusy() const;

  // The failover overlay (the src/fault watchdog): a forced-busy core reads
  // busy to every check regardless of its watermarks, so peers steal its
  // ring dry and the migration loop treats it as a victim, never a
  // destination. The watermark state keeps updating underneath and regains
  // authority the moment the force is lifted; while forced, the enqueue and
  // dequeue hooks report no flips (the effective bit cannot move).
  virtual void SetForcedBusy(CoreId core, bool forced);

  // The EWMA queue length driving `core`'s low-watermark check; exposed for
  // decision tracing (obs::TraceRing records it at every busy flip).
  virtual double EwmaValue(CoreId core) const;

  // --- connection stealing (Section 3.3.1, "Connection stealing") ---

  // Proportional share: with local connections available and a busy victim
  // in sight, should this accept() go remote? Advances `core`'s share
  // counter; one call in every (steal_ratio + 1) says yes.
  virtual bool ShouldStealThisTime(CoreId core);

  // The nearest busy victim for `thief`: distance classes nearest first,
  // round-robin within a class starting one past the last victim. kNoCore
  // when no other core is busy.
  virtual CoreId PickBusyVictim(CoreId thief);

  // The same nearest-first scan with a queue-nonempty predicate, for the
  // polling path ("followed by remote non-busy cores").
  virtual CoreId PickAnyVictim(CoreId thief, const std::function<bool(CoreId)>& has_connections);

  // Records a successful steal (feeds flow-group migration).
  virtual void OnSteal(CoreId thief, CoreId victim);

  // --- migration feed (Section 3.3.2) ---

  // The victim `thief` has stolen from the most since its last epoch reset;
  // kNoCore if it has not stolen at all.
  virtual CoreId TopVictimOf(CoreId thief) const;
  // Clears `thief`'s epoch steal counts (after a migration decision).
  virtual void ResetEpochCounts(CoreId thief);
  // This epoch's steal count of `thief` against `victim` -- the number the
  // 100 ms migration loop targets by ("the victim core from which it has
  // stolen the largest number of connections"), so migration telemetry can
  // record why a group moved.
  virtual uint64_t EpochSteals(CoreId thief, CoreId victim) const;

  // --- reporting: the simulator and tests only, never under the lock ---

  bool IsForcedBusy(CoreId core) const { return forced_[Slot(core)]; }
  size_t high_watermark() const { return high_; }
  size_t low_watermark() const { return low_; }
  uint64_t transitions_to_busy() const { return to_busy_; }
  uint64_t transitions_to_nonbusy() const { return to_nonbusy_; }
  uint64_t total_steals() const { return total_steals_; }
  void ResetTotalSteals() { total_steals_ = 0; }
  // `thief`'s victim order: distance classes nearest first, ascending core
  // ids within a class (flat = one class of all peers).
  const std::vector<std::vector<CoreId>>& VictimClasses(CoreId thief) const {
    return classes_[Slot(thief)];
  }

 private:
  static size_t Slot(CoreId core) { return static_cast<size_t>(core); }
  size_t Index(CoreId thief, CoreId victim) const {
    return Slot(thief) * static_cast<size_t>(num_cores_) + Slot(victim);
  }

  // The effective busy bit and vector. The virtual methods call these, never
  // each other: under LockedBalancePolicy a virtual call from inside a
  // locked call would take the mutex twice.
  bool BusyBit(CoreId core) const { return forced_[Slot(core)] || busy_[Slot(core)]; }
  bool AnyBusyBit() const { return busy_count_ > 0 || forced_count_ > 0; }
  // Sets the watermark bit; returns true (and counts the transition) if it
  // changed.
  bool SetBusy(CoreId core, bool busy);
  // Clearing is conservative: only once the long-term average has decayed
  // below the low watermark. The watermark state, not the forced overlay,
  // decides the clear, and while forced the flip is invisible.
  bool ClearIfDecayed(CoreId core);

  // Nearest class first; within a class, round-robin from the cursor. The
  // cursor advances to one past a hit, preserving the paper's fairness
  // among equally-distant victims.
  template <typename Pred>
  CoreId Scan(CoreId thief, Pred wanted) {
    const std::vector<std::vector<CoreId>>& classes = classes_[Slot(thief)];
    std::vector<size_t>& cursors = cursors_[Slot(thief)];
    for (size_t ci = 0; ci < classes.size(); ++ci) {
      const std::vector<CoreId>& members = classes[ci];
      size_t start = cursors[ci];
      for (size_t i = 0; i < members.size(); ++i) {
        size_t pos = (start + i) % members.size();
        CoreId candidate = members[pos];
        if (wanted(candidate)) {
          cursors[ci] = (pos + 1) % members.size();
          return candidate;
        }
      }
    }
    return kNoCore;
  }

  int num_cores_;

  // Busy tracking: watermarks, per-core EWMA, the busy bit vector and the
  // forced-busy overlay.
  size_t high_;
  size_t low_;
  std::vector<Ewma> ewma_;
  std::vector<bool> busy_;
  std::vector<bool> forced_;
  int busy_count_ = 0;
  int forced_count_ = 0;
  uint64_t to_busy_ = 0;
  uint64_t to_nonbusy_ = 0;

  // Stealing: per-core share counters (cycling 0..steal_ratio), per-thief
  // victim classes (nearest first) with a round-robin cursor per class, and
  // the thief x victim steal counts of the current epoch.
  int steal_ratio_;
  std::vector<int> share_counter_;
  std::vector<std::vector<std::vector<CoreId>>> classes_;
  std::vector<std::vector<size_t>> cursors_;
  std::vector<uint64_t> counts_;
  uint64_t total_steals_ = 0;
};

// The runtime's policy: BalancePolicy with each virtual call serialized
// under one mutex, so the reactor threads can share it. With the same
// (serialized) event sequence it makes the same decisions as a plain
// BalancePolicy -- tests/balance/balance_policy_test.cc holds the two in
// lock-step. It adds no state but the mutex.
class LockedBalancePolicy final : public BalancePolicy {
 public:
  using BalancePolicy::BalancePolicy;

  bool OnEnqueueBatch(CoreId core, size_t count, size_t len_after) override;
  bool OnDequeueBatch(CoreId core, size_t count, size_t len_after) override;
  bool IsBusy(CoreId core) const override;
  bool AnyBusy() const override;
  void SetForcedBusy(CoreId core, bool forced) override;
  double EwmaValue(CoreId core) const override;
  bool ShouldStealThisTime(CoreId core) override;
  CoreId PickBusyVictim(CoreId thief) override;
  CoreId PickAnyVictim(CoreId thief,
                       const std::function<bool(CoreId)>& has_connections) override;
  void OnSteal(CoreId thief, CoreId victim) override;
  CoreId TopVictimOf(CoreId thief) const override;
  void ResetEpochCounts(CoreId thief) override;
  uint64_t EpochSteals(CoreId thief, CoreId victim) const override;

 private:
  mutable std::mutex mu_;
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
