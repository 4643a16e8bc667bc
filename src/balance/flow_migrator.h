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
  // kept explicit for partial-ring configurations).
  FlowGroupMigrator(SimNic* nic, std::function<int(CoreId)> ring_of_core);

  // Runs one migration epoch: for every non-busy core, move one flow group
  // from its top steal victim to itself, then reset that core's epoch steal
  // counts. Returns the cycles of driver work charged (FDir reprogramming),
  // attributed by the caller to the initiating cores.
  Cycles RunEpoch(Cycles now, BalancePolicy* policy, int num_cores);

  // Picks a flow group currently steered at `victim_ring` through the shared
  // FlowGroupPicker, so repeated picks move different groups. Returns false
  // if the victim serves no group.
  bool PickGroupOnRing(int victim_ring, uint32_t* group);

  // Every migration so far; the Kernel charges each one's FDir
  // reprogramming to the core that pulled the group.
  const std::vector<MigrationRecord>& history() const { return history_; }
  uint64_t migrations() const { return history_.size(); }

  static constexpr Cycles kDefaultPeriod = MsToCycles(100);

 private:
  SimNic* nic_;
  std::function<int(CoreId)> ring_of_core_;
  FlowGroupPicker picker_;
  std::vector<MigrationRecord> history_;
};

}  // namespace affinity

#endif  // AFFINITY_SRC_BALANCE_FLOW_MIGRATOR_H_
