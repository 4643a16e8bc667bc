// The long-term balancer's two decisions (paper Section 3.3.2), each written
// once: which core pulls from which victim this epoch
// (MigrateForCoreThisEpoch / RunMigrationEpoch), and which flow group the
// move takes (FlowGroupPicker, with its rotating cursor and hysteresis).
//
// Both migration executors -- the simulator's FlowGroupMigrator (which
// reprograms the SimNic's FDir table) and the runtime's steer::FlowDirector
// (which rewrites the SO_REUSEPORT cBPF steering table) -- call exactly this
// code and differ only in how they read and write their table, so the
// (victim, group, destination) choices they make from the same steal/busy
// history are identical by construction. tests/steer/steer_parity_test.cc
// replays the same history through both as a check.

#ifndef AFFINITY_SRC_BALANCE_MIGRATION_EPOCH_H_
#define AFFINITY_SRC_BALANCE_MIGRATION_EPOCH_H_

#include <cstdint>
#include <vector>

#include "src/balance/balance_policy.h"
#include "src/mem/cacheline.h"

namespace affinity {

// Which flow group a migration moves off its victim, one copy for both
// executors: a scan of the group space from a rotating cursor, so repeated
// migrations move different groups, that passes over groups still cooling
// off. Each executor supplies its own test of whether the victim owns a
// group (the SimNic's FDir table, or the runtime's steering table), so the
// two pick the same group from the same table.
//
// The cooling-off is migration hysteresis: a group that just migrated is
// ineligible to move again for `min_epochs` epochs -- the fix for
// ping-ponging: two near-balanced cores alternately reading each other as
// the top victim and trading the same group back and forth every 100 ms,
// dragging its connections' cache state across the LLC each time. Failover
// and recovery moves bypass this on purpose (a dead owner always outranks
// cache warmth), and do not stamp it either -- parking is not a balancer
// decision, so it must not perturb the balancer's future choices (the
// parity test replays failovers on both sides, but only epoch moves are
// damped). min_epochs == 0 keeps the pre-hysteresis behavior bit-for-bit.
class FlowGroupPicker {
 public:
  FlowGroupPicker(uint32_t num_groups, uint32_t min_epochs)
      : num_groups_(num_groups),
        min_epochs_(min_epochs),
        last_move_(min_epochs > 0 ? num_groups : 0, kNeverMoved) {}

  // The first group from the cursor that `owned_by_victim(group)` accepts
  // and that may migrate at epoch `tick` (the executor's monotonically
  // increasing epoch counter); the cursor moves one past it. False when
  // there is none. A victim-owned group passed over because it moved too
  // recently sets *damped (when given) and leaves the cursor, so a later
  // epoch revisits it.
  template <typename OwnedByVictim>
  bool Pick(uint64_t tick, OwnedByVictim&& owned_by_victim, uint32_t* group,
            bool* damped = nullptr) {
    for (uint32_t i = 0; i < num_groups_; ++i) {
      uint32_t candidate = (cursor_ + i) % num_groups_;
      if (!owned_by_victim(candidate)) {
        continue;
      }
      if (!Eligible(candidate, tick)) {
        if (damped != nullptr) {
          *damped = true;
        }
        continue;
      }
      cursor_ = (candidate + 1) % num_groups_;
      *group = candidate;
      return true;
    }
    return false;
  }

  // Stamps a balancer move of `group` at epoch `tick`.
  void NoteMove(uint32_t group, uint64_t tick) {
    if (min_epochs_ != 0) {
      last_move_[group] = tick;
    }
  }

 private:
  bool Eligible(uint32_t group, uint64_t tick) const {
    if (min_epochs_ == 0) {
      return true;
    }
    uint64_t last = last_move_[group];
    return last == kNeverMoved || tick >= last + min_epochs_;
  }

  static constexpr uint64_t kNeverMoved = ~0ull;
  uint32_t num_groups_;
  uint32_t min_epochs_;
  uint32_t cursor_ = 0;
  std::vector<uint64_t> last_move_;
};

// One core's migration decision: a non-busy core that stole this epoch pulls
// one flow group from its top victim. `migrate_one(core, victim)` performs
// the table rewrite (and may fail to find a group still owned by the
// victim). The epoch steal counts are reset whenever a victim was chosen,
// whether or not a group could be moved -- the paper's balancer restarts its
// census every 100 ms regardless.
template <typename MigrateOne>
inline void MigrateForCoreThisEpoch(BalancePolicy* policy, CoreId core,
                                    MigrateOne&& migrate_one) {
  if (policy->IsBusy(core)) {
    return;  // busy cores do not pull more load to themselves
  }
  CoreId victim = policy->TopVictimOf(core);
  if (victim == kNoCore) {
    return;  // did not steal this epoch: leave the steering alone
  }
  migrate_one(core, victim);
  policy->ResetEpochCounts(core);
}

// A full centralized epoch, core 0 first -- the order the simulator uses and
// the order the parity test replays.
template <typename MigrateOne>
inline void RunMigrationEpoch(BalancePolicy* policy, int num_cores, MigrateOne&& migrate_one) {
  for (CoreId core = 0; core < num_cores; ++core) {
    MigrateForCoreThisEpoch(policy, core, migrate_one);
  }
}

}  // namespace affinity

#endif  // AFFINITY_SRC_BALANCE_MIGRATION_EPOCH_H_
