// Flow-group migration (paper Section 3.3.2).
//
// "Every 100ms, each non-busy core finds the victim core from which it has
//  stolen the largest number of connections, and migrates one flow group from
//  that core to itself (by reprogramming the NIC's FDir table). ... Busy
//  cores do not migrate additional flow groups to themselves."

#ifndef AFFINITY_SRC_BALANCE_FLOW_MIGRATOR_H_
#define AFFINITY_SRC_BALANCE_FLOW_MIGRATOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/balance/balance_policy.h"
#include "src/balance/migration_epoch.h"
#include "src/hw/nic.h"
#include "src/mem/cacheline.h"
#include "src/sim/time.h"

namespace affinity {

struct MigrationRecord {
  Cycles when;
  uint32_t group;
  CoreId from_core;
  CoreId to_core;
};

class FlowGroupMigrator {
 public:
  // `ring_of_core` maps a core to its RX DMA ring (identity in this repo, but
  // kept explicit for partial-ring configurations). `min_epochs` is the
  // FlowGroupPicker's hysteresis (0 = off): a group that migrated may not
  // migrate again for that many RunEpoch calls, like the runtime
  // FlowDirector's min_epochs_between_moves knob.
  FlowGroupMigrator(SimNic* nic, std::function<int(CoreId)> ring_of_core,
                    uint32_t min_epochs = 0);

  // Runs one migration epoch: for every non-busy core, move one flow group
  // from its top steal victim to itself, then reset that core's epoch steal
  // counts. Returns the cycles of driver work charged (FDir reprogramming),
  // attributed by the caller to the initiating cores.
  Cycles RunEpoch(Cycles now, BalancePolicy* policy, int num_cores);

  // Picks a flow group currently steered at `victim_ring` through the shared
  // FlowGroupPicker, so repeated picks move different groups. Returns false
  // if the victim serves no eligible group.
  bool PickGroupOnRing(int victim_ring, uint32_t* group);

  const std::vector<MigrationRecord>& history() const { return history_; }
  uint64_t migrations() const { return history_.size(); }
  // Epoch decisions where the victim served at least one group but the
  // hysteresis blocked all of them; the runtime twin is
  // FlowDirector::migrations_suppressed().
  uint64_t migrations_suppressed() const { return migrations_suppressed_; }

  static constexpr Cycles kDefaultPeriod = MsToCycles(100);

 private:
  SimNic* nic_;
  std::function<int(CoreId)> ring_of_core_;
  FlowGroupPicker picker_;
  // Monotonic RunEpoch counter feeding the picker. Eligibility compares
  // tick DIFFERENCES, so parity with the director holds for any two tick
  // sequences that advance by one per epoch, whatever their bases.
  uint64_t epoch_tick_ = 0;
  uint64_t migrations_suppressed_ = 0;
  std::vector<MigrationRecord> history_;
};

}  // namespace affinity

#endif  // AFFINITY_SRC_BALANCE_FLOW_MIGRATOR_H_
