#include "src/balance/flow_migrator.h"

namespace affinity {

FlowGroupMigrator::FlowGroupMigrator(SimNic* nic, std::function<int(CoreId)> ring_of_core)
    : nic_(nic),
      ring_of_core_(std::move(ring_of_core)),
      picker_(nic->config().num_flow_groups) {}

bool FlowGroupMigrator::PickGroupOnRing(int victim_ring, uint32_t* group) {
  return picker_.Pick([&](uint32_t g) { return nic_->RingOfFlowGroup(g) == victim_ring; },
                      group);
}

Cycles FlowGroupMigrator::RunEpoch(Cycles now, BalancePolicy* policy, int num_cores) {
  Cycles total_cost = 0;
  RunMigrationEpoch(policy, num_cores, [&](CoreId core, CoreId victim) {
    uint32_t group = 0;
    if (PickGroupOnRing(ring_of_core_(victim), &group)) {
      total_cost += nic_->MigrateFlowGroup(group, ring_of_core_(core));
      history_.push_back(MigrationRecord{now, group, victim, core});
    }
  });
  return total_cost;
}

}  // namespace affinity
