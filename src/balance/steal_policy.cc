#include "src/balance/steal_policy.h"

#include <cassert>

namespace affinity {

StealPolicy::StealPolicy(int num_cores, int local_ratio, const topo::Topology* topo)
    : num_cores_(num_cores),
      local_ratio_(local_ratio),
      share_counter_(static_cast<size_t>(num_cores), 0),
      classes_(static_cast<size_t>(num_cores)),
      cursors_(static_cast<size_t>(num_cores)),
      counts_(static_cast<size_t>(num_cores) * static_cast<size_t>(num_cores), 0) {
  assert(num_cores > 0);
  assert(local_ratio >= 1);
  assert(topo == nullptr || topo->num_cores() >= num_cores);
  for (int thief = 0; thief < num_cores; ++thief) {
    size_t t = static_cast<size_t>(thief);
    classes_[t] = topo::NearestFirstPeers(topo, thief, num_cores);
    cursors_[t].assign(classes_[t].size(), 0);
  }
}

bool StealPolicy::ShouldStealThisTime(CoreId core) {
  int& counter = share_counter_[static_cast<size_t>(core)];
  counter = (counter + 1) % (local_ratio_ + 1);
  // One accept in every (ratio + 1) goes remote.
  return counter == 0;
}

CoreId StealPolicy::PickBusyVictim(CoreId thief, const BusyTracker& busy) {
  if (!busy.AnyBusy()) {
    return kNoCore;
  }
  return Scan(thief, [&busy](CoreId candidate) { return busy.IsBusy(candidate); });
}

void StealPolicy::OnSteal(CoreId thief, CoreId victim) {
  ++counts_[Index(thief, victim)];
  ++total_steals_;
}

CoreId StealPolicy::TopVictimOf(CoreId thief) const {
  CoreId best = kNoCore;
  uint64_t best_count = 0;
  for (int victim = 0; victim < num_cores_; ++victim) {
    uint64_t count = counts_[Index(thief, victim)];
    if (count > best_count) {
      best_count = count;
      best = victim;
    }
  }
  return best;
}

void StealPolicy::ResetEpochCounts(CoreId thief) {
  for (int victim = 0; victim < num_cores_; ++victim) {
    counts_[Index(thief, victim)] = 0;
  }
}

}  // namespace affinity
