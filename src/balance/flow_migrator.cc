#include "src/balance/flow_migrator.h"

namespace affinity {

FlowGroupMigrator::FlowGroupMigrator(SimNic* nic, std::function<int(CoreId)> ring_of_core,
                                     uint32_t min_epochs)
    : nic_(nic),
      ring_of_core_(std::move(ring_of_core)),
      picker_(nic->config().num_flow_groups, min_epochs) {}

bool FlowGroupMigrator::PickGroupOnRing(int victim_ring, uint32_t* group) {
  return picker_.Pick(
      epoch_tick_, [&](uint32_t g) { return nic_->RingOfFlowGroup(g) == victim_ring; }, group);
}

Cycles FlowGroupMigrator::RunEpoch(Cycles now, BalancePolicy* policy, int num_cores) {
  Cycles total_cost = 0;
  uint64_t tick = epoch_tick_++;
  RunMigrationEpoch(policy, num_cores, [&](CoreId core, CoreId victim) {
    int victim_ring = ring_of_core_(victim);
    uint32_t group = 0;
    bool damped = false;
    if (picker_.Pick(
            tick, [&](uint32_t g) { return nic_->RingOfFlowGroup(g) == victim_ring; }, &group,
            &damped)) {
      total_cost += nic_->MigrateFlowGroup(group, ring_of_core_(core));
      picker_.NoteMove(group, tick);
      history_.push_back(MigrationRecord{now, group, victim, core});
    } else if (damped) {
      ++migrations_suppressed_;
    }
  });
  return total_cost;
}

}  // namespace affinity
