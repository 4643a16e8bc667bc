// The long-term balancer's two decisions (paper Section 3.3.2), each written
// once: which core pulls from which victim this epoch
// (MigrateForCoreThisEpoch / RunMigrationEpoch), and which flow group the
// move takes (FlowGroupPicker, with its rotating cursor). Like the paper's
// balancer, they remember nothing beyond one epoch's steal counts and the
// cursor.
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

#include "src/balance/balance_policy.h"
#include "src/mem/cacheline.h"

namespace affinity {

// Which flow group a migration moves off its victim, one copy for both
// executors: a scan of the group space from a rotating cursor, so repeated
// migrations move different groups. Each executor supplies its own test of
// whether the victim owns a group (the SimNic's FDir table, or the
// runtime's steering table), so the two pick the same group from the same
// table.
class FlowGroupPicker {
 public:
  explicit FlowGroupPicker(uint32_t num_groups) : num_groups_(num_groups) {}

  // The first group from the cursor that `owned_by_victim(group)` accepts;
  // the cursor moves one past it. False when there is none.
  template <typename OwnedByVictim>
  bool Pick(OwnedByVictim&& owned_by_victim, uint32_t* group) {
    for (uint32_t i = 0; i < num_groups_; ++i) {
      uint32_t candidate = (cursor_ + i) % num_groups_;
      if (owned_by_victim(candidate)) {
        cursor_ = (candidate + 1) % num_groups_;
        *group = candidate;
        return true;
      }
    }
    return false;
  }

 private:
  uint32_t num_groups_;
  uint32_t cursor_ = 0;
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
