// BalancePolicy: the load balancer of Affinity-Accept (paper Section 3.3.1)
// for one listen socket, in one class, so the discrete-event simulator
// (src/stack/listen_socket.cc) and the real-socket runtime (src/rt/) run the
// same watermark / EWMA / proportional-share decisions. ServeAffinityOrder
// (below) is the order both sides consult it in when they take a
// connection, and PickPollerToWake the choice of which sleeper a queued
// connection wakes, so each of those exists once too.
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
// Thread safety: one policy is shared without a lock, by the simulator's
// one event loop or by the runtime's reactor threads, because a shared lock
// on the accept path is what the paper removes. Who writes what:
//  - The busy and forced-busy bit vectors share one cache line. A bit is
//    written only when it flips (fetch_or / fetch_and), and the old value
//    the read-modify-write returns decides whether this call flipped it, so
//    each flip is reported and counted exactly once even when two reporters
//    race. IsBusy and AnyBusy are relaxed loads: while no core changes
//    state the line stays shared and is never transferred.
//  - Each core's EWMA is an atomic double moved by a CAS loop. The owner is
//    not its only writer: a thief's dequeue report and a re-steering push
//    report a queue they do not own.
//  - The share counter, the victim-scan cursors, the epoch steal row and
//    the total steal count belong to one core, the thief, and are plain
//    fields. Only that core's thread calls the owner-only methods
//    (ShouldStealThisTime, PickBusyVictim, PickAnyVictim, OnSteal,
//    TopVictimOf, ResetEpochCounts, EpochSteals). A reactor records its
//    thread with BindOwner, and those methods assert that a bound core is
//    called from its bound thread (netlib's AssertInLoopThread). The
//    simulator, the tests and rtbench's layer pass never bind, so one
//    thread may act for every core.
//  - The transition counters are relaxed atomics, written on a flip only.
//  - The watermarks, the EWMA's alpha and the victim classes are constant
//    after construction.
// total_steals and ResetTotalSteals, among the reporting accessors at the
// end of the class, read owner-only fields: call them with no thief running.
//
// One interleaving of two reporters of one core has no serial equivalent:
// the owner's enqueue report sets the bit and reseeds the EWMA, while a
// thief's dequeue report, computed from the EWMA before the reseed, clears
// that bit; the owner's next report above the high watermark sets it again.
// Each flip is still counted once. The bit is advisory -- it steers where a
// thief looks, and no ledger or ring handoff reads it -- so one report of
// a briefly non-busy core costs at most a missed steal.

#ifndef AFFINITY_SRC_BALANCE_BALANCE_POLICY_H_
#define AFFINITY_SRC_BALANCE_BALANCE_POLICY_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "src/mem/cacheline.h"
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
  // and outlive the policy. At most kMaxCores cores.
  BalancePolicy(int num_cores, int max_local_len, const BalanceTuning& tuning = BalanceTuning{},
                const topo::Topology* topo = nullptr);
  BalancePolicy(const BalancePolicy&) = delete;
  BalancePolicy& operator=(const BalancePolicy&) = delete;

  // Records the calling thread as `core`'s owner: from now on the
  // owner-only methods below abort when called for `core` from any other
  // thread. Each reactor binds its core once, after pinning; a later bind
  // (a restarted runtime's new reactor) replaces the owner.
  void BindOwner(CoreId core);

  // --- busy tracking (Section 3.3.1, "Tracking busy cores") ---

  // `count` connections landed on `core`'s accept queue; `len_after`
  // includes them. The runtime reports each touched queue once per batch,
  // the simulator each connection as a batch of one; the decision reads
  // only the post-batch length. Updates the EWMA and both watermark checks.
  // Returns true if this call flipped the core's busy bit (the simulator
  // charges a bit-vector write; the runtime records the flip). Any thread.
  bool OnEnqueueBatch(CoreId core, size_t count, size_t len_after);

  // `count` connections left `core`'s accept queue. The paper moves the
  // EWMA only on enqueue; this also decays it on dequeue, so that a core
  // whose flow groups were all migrated away (no more enqueues) can still
  // shed its busy bit once drained. With a steady enqueue stream the
  // behaviour is the same. Returns true if this call flipped the busy bit.
  // Any thread.
  bool OnDequeueBatch(CoreId core, size_t count, size_t len_after);

  bool IsBusy(CoreId core) const {
    const size_t w = Word(core);
    return ((bits_.busy[w].load(std::memory_order_relaxed) |
             bits_.forced[w].load(std::memory_order_relaxed)) &
            Mask(core)) != 0;
  }
  // Any core busy right now? (one bit-vector read)
  bool AnyBusy() const {
    uint64_t any = 0;
    for (size_t w = 0; w < kBitWords; ++w) {
      any |= bits_.busy[w].load(std::memory_order_relaxed) |
             bits_.forced[w].load(std::memory_order_relaxed);
    }
    return any != 0;
  }

  // The failover overlay (the src/fault watchdog): a forced-busy core reads
  // busy to every check regardless of its watermarks, so peers steal its
  // ring dry and the migration loop treats it as a victim, never a
  // destination. The watermark state keeps updating underneath and regains
  // authority the moment the force is lifted; while forced, the enqueue and
  // dequeue hooks report no flips (the effective bit cannot move). Any
  // thread.
  void SetForcedBusy(CoreId core, bool forced);

  // The EWMA queue length driving `core`'s low-watermark check; exposed for
  // decision tracing (obs::TraceRing records it at every busy flip).
  double EwmaValue(CoreId core) const {
    return cores_[Slot(core)].value.ewma.load(std::memory_order_relaxed);
  }

  // --- connection stealing (Section 3.3.1, "Connection stealing") ---
  // Owner-only: `core` / `thief` is the calling core.

  // Proportional share: with local connections available and a busy victim
  // in sight, should this accept() go remote? Advances `core`'s share
  // counter; one call in every (steal_ratio + 1) says yes.
  bool ShouldStealThisTime(CoreId core);
  // The share's local side: steal_ratio local connections per stolen one.
  int steal_ratio() const { return steal_ratio_; }

  // Whether ServeAffinityOrder takes from `queue` for `core` outside an idle
  // pass: `core`'s own queue, or a busy peer's while `core` is not busy.
  // The runtime's last look for work before it sleeps asks the same
  // question (Reactor::CanServeFrom). Any thread.
  bool MayServeFrom(CoreId core, CoreId queue) const {
    return queue == core || (!IsBusy(core) && IsBusy(queue));
  }

  // The nearest busy victim for `thief`: distance classes nearest first,
  // round-robin within a class starting one past the last victim. kNoCore
  // when no other core is busy.
  CoreId PickBusyVictim(CoreId thief);

  // The same nearest-first scan with a queue-nonempty predicate, for the
  // polling path ("followed by remote non-busy cores").
  template <typename HasConnections>
  CoreId PickAnyVictim(CoreId thief, HasConnections&& has_connections) {
    AssertOwner(thief);
    return Scan(thief, has_connections);
  }

  // Records a successful steal (feeds flow-group migration).
  void OnSteal(CoreId thief, CoreId victim);

  // The polling wakeup ("Polling"): a connection landed on `core`'s queue
  // and no local waiter will take it now, so wake a waiter on a non-busy
  // remote core. Returns the first non-busy peer, in `core`'s nearest-first
  // victim order, for which `has_waiter(peer)` holds -- the simulator asks
  // "has a thread waiting", the runtime "is parked" -- or kNoCore. Reads
  // only the busy bits and the constant victim classes, and moves no
  // cursor, so any thread may call it.
  template <typename HasWaiter>
  CoreId PickPollerToWake(CoreId core, HasWaiter&& has_waiter) const {
    for (const std::vector<CoreId>& members : VictimClasses(core)) {
      for (CoreId peer : members) {
        if (!IsBusy(peer) && has_waiter(peer)) {
          return peer;
        }
      }
    }
    return kNoCore;
  }

  // --- migration feed (Section 3.3.2); owner-only like stealing ---

  // The victim `thief` has stolen from the most since its last epoch reset;
  // kNoCore if it has not stolen at all.
  CoreId TopVictimOf(CoreId thief) const;
  // Clears `thief`'s epoch steal counts (after a migration decision).
  void ResetEpochCounts(CoreId thief);
  // This epoch's steal count of `thief` against `victim` -- the number the
  // 100 ms migration loop targets by ("the victim core from which it has
  // stolen the largest number of connections"), so migration telemetry can
  // record why a group moved.
  uint64_t EpochSteals(CoreId thief, CoreId victim) const;

  // --- reporting: the simulator and tests; total_steals and
  // ResetTotalSteals read the thieves' own counts, so call them with no
  // thief running ---

  bool IsForcedBusy(CoreId core) const {
    return (bits_.forced[Word(core)].load(std::memory_order_relaxed) & Mask(core)) != 0;
  }
  size_t high_watermark() const { return high_; }
  size_t low_watermark() const { return low_; }
  uint64_t transitions_to_busy() const {
    return bits_.to_busy.load(std::memory_order_relaxed);
  }
  uint64_t transitions_to_nonbusy() const {
    return bits_.to_nonbusy.load(std::memory_order_relaxed);
  }
  uint64_t total_steals() const;
  void ResetTotalSteals();
  // `thief`'s victim order: distance classes nearest first, ascending core
  // ids within a class (flat = one class of all peers).
  const std::vector<std::vector<CoreId>>& VictimClasses(CoreId thief) const {
    return cores_[Slot(thief)].value.classes;
  }

 private:
  static constexpr size_t kBitWords = static_cast<size_t>(kMaxCores) / 64;
  static_assert(kMaxCores % 64 == 0, "the bit vectors hold whole words");

  static size_t Slot(CoreId core) { return static_cast<size_t>(core); }
  static size_t Word(CoreId core) { return Slot(core) / 64; }
  static uint64_t Mask(CoreId core) { return uint64_t{1} << (Slot(core) % 64); }

  // The owner-only methods' check: true unless `core` is bound to another
  // thread.
  void AssertOwner(CoreId core) const {
    assert(OwnedByCaller(core) && "owner-only BalancePolicy call from a foreign thread");
  }
  bool OwnedByCaller(CoreId core) const {
    std::thread::id owner = cores_[Slot(core)].value.owner.load(std::memory_order_relaxed);
    return owner == std::thread::id() || owner == std::this_thread::get_id();
  }

  // One EWMA step on `core`'s average; returns the value this call wrote.
  double UpdateEwma(CoreId core, size_t len);
  // Sets or clears the watermark bit; returns true (and counts the
  // transition) if this call flipped it.
  bool SetBusy(CoreId core, bool busy);
  // Clearing is conservative: only once the long-term average (`ewma`, the
  // value this report computed) has decayed below the low watermark. The
  // watermark state, not the forced overlay, decides the clear, and while
  // forced the flip is invisible.
  bool ClearIfDecayed(CoreId core, double ewma);

  // Nearest class first; within a class, round-robin from the cursor. The
  // cursor advances to one past a hit, preserving the paper's fairness
  // among equally-distant victims.
  template <typename Pred>
  CoreId Scan(CoreId thief, Pred& wanted) {
    CoreSlot& slot = cores_[Slot(thief)].value;
    for (size_t ci = 0; ci < slot.classes.size(); ++ci) {
      const std::vector<CoreId>& members = slot.classes[ci];
      size_t start = slot.cursors[ci];
      for (size_t i = 0; i < members.size(); ++i) {
        size_t pos = (start + i) % members.size();
        CoreId candidate = members[pos];
        if (wanted(candidate)) {
          slot.cursors[ci] = (pos + 1) % members.size();
          return candidate;
        }
      }
    }
    return kNoCore;
  }

  // The Section 3.3.1 bit vectors (effective busy = watermark bit | forced
  // bit) and the flip counters, on one line that only a flip writes.
  struct alignas(kCacheLineBytes) BitVectors {
    std::atomic<uint64_t> busy[kBitWords]{};
    std::atomic<uint64_t> forced[kBitWords]{};
    std::atomic<uint64_t> to_busy{0};
    std::atomic<uint64_t> to_nonbusy{0};
  };
  static_assert(sizeof(BitVectors) == kCacheLineBytes, "the bit vectors share one line");

  // One core's state, on its own line(s).
  struct CoreSlot {
    // Written by every reporter of this core's queue.
    std::atomic<double> ewma{0.0};
    // BindOwner's thread; the default id (no thread) until bound.
    std::atomic<std::thread::id> owner{};
    // The thief's own: the share counter (cycling 0..steal_ratio), a
    // round-robin cursor per victim class, this epoch's steal count per
    // victim, and every steal since the last ResetTotalSteals.
    int share_counter = 0;
    std::vector<size_t> cursors;
    std::vector<uint64_t> epoch_steals;
    uint64_t total_steals = 0;
    // Victim classes, nearest first; constant after construction.
    std::vector<std::vector<CoreId>> classes;
  };

  BitVectors bits_;
  int num_cores_;
  size_t high_;
  size_t low_;
  double alpha_;
  int steal_ratio_;
  std::unique_ptr<CachePadded<CoreSlot>[]> cores_;
};

// Kept for rtbench/layers.cc, the one caller that still names this type;
// the next benchmark change points it at BalancePolicy and deletes this.
using LockedBalancePolicy = BalancePolicy;

// The Section 3.3.1 service order, the one copy that both the simulator's
// ListenSocket::Accept and the runtime's Reactor::ServeOne run. A non-busy
// core with stealing on and a busy core in sight goes remote first when its
// own queue is empty or the 5:1 share says so; otherwise it takes its own
// queue, then a busy victim's. Only an idle pass (`idle`) polls every other
// queue, nearest first ("Polling"): the simulator's blocking accept on its
// way to sleep, the runtime's pass after a wakeup that brought no I/O and
// found nothing to serve. A busy core takes only its own queue.
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
