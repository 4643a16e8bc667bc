#include "src/balance/balance_policy.h"

#include <algorithm>
#include <cassert>

namespace affinity {

BalancePolicy::BalancePolicy(int num_cores, int max_local_len, const BalanceTuning& tuning,
                             const topo::Topology* topo)
    : num_cores_(num_cores),
      high_(static_cast<size_t>(std::max(1.0, tuning.high_watermark * max_local_len))),
      low_(static_cast<size_t>(std::max(1.0, tuning.low_watermark * max_local_len))),
      busy_(static_cast<size_t>(num_cores), false),
      forced_(static_cast<size_t>(num_cores), false),
      steal_ratio_(tuning.steal_ratio),
      share_counter_(static_cast<size_t>(num_cores), 0),
      classes_(static_cast<size_t>(num_cores)),
      cursors_(static_cast<size_t>(num_cores)),
      counts_(static_cast<size_t>(num_cores) * static_cast<size_t>(num_cores), 0) {
  assert(num_cores > 0);
  assert(max_local_len > 0);
  assert(steal_ratio_ >= 1);
  assert(topo == nullptr || topo->num_cores() >= num_cores);
  // "EWMA's alpha parameter is set to one over twice the max local accept
  //  queue length" (Section 3.3.1).
  double alpha = 1.0 / (2.0 * static_cast<double>(max_local_len));
  ewma_.reserve(static_cast<size_t>(num_cores));
  for (CoreId core = 0; core < num_cores; ++core) {
    ewma_.emplace_back(alpha, 0.0);
    classes_[Slot(core)] = topo::NearestFirstPeers(topo, core, num_cores);
    cursors_[Slot(core)].assign(classes_[Slot(core)].size(), 0);
  }
}

bool BalancePolicy::SetBusy(CoreId core, bool busy) {
  if (busy_[Slot(core)] == busy) {
    return false;
  }
  busy_[Slot(core)] = busy;
  busy_count_ += busy ? 1 : -1;
  if (busy) {
    ++to_busy_;
  } else {
    ++to_nonbusy_;
  }
  return true;
}

bool BalancePolicy::ClearIfDecayed(CoreId core) {
  if (busy_[Slot(core)] && ewma_[Slot(core)].value() < static_cast<double>(low_)) {
    return SetBusy(core, false) && !forced_[Slot(core)];
  }
  return false;
}

bool BalancePolicy::OnEnqueueBatch(CoreId core, size_t /*count*/, size_t len_after) {
  Ewma& avg = ewma_[Slot(core)];
  avg.Update(static_cast<double>(len_after));
  // The high watermark reads the instantaneous length: a load spike must
  // flip the bit quickly so other cores start stealing.
  if (len_after > high_) {
    bool flipped = SetBusy(core, true);
    if (flipped) {
      // Seed the average with the spike; otherwise a fresh EWMA (still near
      // zero) would clear the bit on the very next enqueue.
      avg.Reset(static_cast<double>(len_after));
    }
    return flipped && !forced_[Slot(core)];
  }
  return ClearIfDecayed(core);
}

bool BalancePolicy::OnDequeueBatch(CoreId core, size_t /*count*/, size_t len_after) {
  ewma_[Slot(core)].Update(static_cast<double>(len_after));
  return ClearIfDecayed(core);
}

bool BalancePolicy::IsBusy(CoreId core) const { return BusyBit(core); }

bool BalancePolicy::AnyBusy() const { return AnyBusyBit(); }

void BalancePolicy::SetForcedBusy(CoreId core, bool forced) {
  if (forced_[Slot(core)] == forced) {
    return;
  }
  forced_[Slot(core)] = forced;
  forced_count_ += forced ? 1 : -1;
}

double BalancePolicy::EwmaValue(CoreId core) const { return ewma_[Slot(core)].value(); }

bool BalancePolicy::ShouldStealThisTime(CoreId core) {
  int& counter = share_counter_[Slot(core)];
  counter = (counter + 1) % (steal_ratio_ + 1);
  return counter == 0;
}

CoreId BalancePolicy::PickBusyVictim(CoreId thief) {
  if (!AnyBusyBit()) {
    return kNoCore;
  }
  return Scan(thief, [this](CoreId candidate) { return BusyBit(candidate); });
}

CoreId BalancePolicy::PickAnyVictim(CoreId thief,
                                    const std::function<bool(CoreId)>& has_connections) {
  return Scan(thief, has_connections);
}

void BalancePolicy::OnSteal(CoreId thief, CoreId victim) {
  ++counts_[Index(thief, victim)];
  ++total_steals_;
}

CoreId BalancePolicy::TopVictimOf(CoreId thief) const {
  CoreId best = kNoCore;
  uint64_t best_count = 0;
  for (CoreId victim = 0; victim < num_cores_; ++victim) {
    uint64_t count = counts_[Index(thief, victim)];
    if (count > best_count) {
      best_count = count;
      best = victim;
    }
  }
  return best;
}

void BalancePolicy::ResetEpochCounts(CoreId thief) {
  for (CoreId victim = 0; victim < num_cores_; ++victim) {
    counts_[Index(thief, victim)] = 0;
  }
}

uint64_t BalancePolicy::EpochSteals(CoreId thief, CoreId victim) const {
  return counts_[Index(thief, victim)];
}

bool LockedBalancePolicy::OnEnqueueBatch(CoreId core, size_t count, size_t len_after) {
  std::lock_guard<std::mutex> lock(mu_);
  return BalancePolicy::OnEnqueueBatch(core, count, len_after);
}

bool LockedBalancePolicy::OnDequeueBatch(CoreId core, size_t count, size_t len_after) {
  std::lock_guard<std::mutex> lock(mu_);
  return BalancePolicy::OnDequeueBatch(core, count, len_after);
}

bool LockedBalancePolicy::IsBusy(CoreId core) const {
  std::lock_guard<std::mutex> lock(mu_);
  return BalancePolicy::IsBusy(core);
}

bool LockedBalancePolicy::AnyBusy() const {
  std::lock_guard<std::mutex> lock(mu_);
  return BalancePolicy::AnyBusy();
}

void LockedBalancePolicy::SetForcedBusy(CoreId core, bool forced) {
  std::lock_guard<std::mutex> lock(mu_);
  BalancePolicy::SetForcedBusy(core, forced);
}

double LockedBalancePolicy::EwmaValue(CoreId core) const {
  std::lock_guard<std::mutex> lock(mu_);
  return BalancePolicy::EwmaValue(core);
}

bool LockedBalancePolicy::ShouldStealThisTime(CoreId core) {
  std::lock_guard<std::mutex> lock(mu_);
  return BalancePolicy::ShouldStealThisTime(core);
}

CoreId LockedBalancePolicy::PickBusyVictim(CoreId thief) {
  std::lock_guard<std::mutex> lock(mu_);
  return BalancePolicy::PickBusyVictim(thief);
}

CoreId LockedBalancePolicy::PickAnyVictim(CoreId thief,
                                          const std::function<bool(CoreId)>& has_connections) {
  // The predicate runs under the policy mutex; it must not call back into
  // this policy (reactor predicates only read queue lengths).
  std::lock_guard<std::mutex> lock(mu_);
  return BalancePolicy::PickAnyVictim(thief, has_connections);
}

void LockedBalancePolicy::OnSteal(CoreId thief, CoreId victim) {
  std::lock_guard<std::mutex> lock(mu_);
  BalancePolicy::OnSteal(thief, victim);
}

CoreId LockedBalancePolicy::TopVictimOf(CoreId thief) const {
  std::lock_guard<std::mutex> lock(mu_);
  return BalancePolicy::TopVictimOf(thief);
}

void LockedBalancePolicy::ResetEpochCounts(CoreId thief) {
  std::lock_guard<std::mutex> lock(mu_);
  BalancePolicy::ResetEpochCounts(thief);
}

uint64_t LockedBalancePolicy::EpochSteals(CoreId thief, CoreId victim) const {
  std::lock_guard<std::mutex> lock(mu_);
  return BalancePolicy::EpochSteals(thief, victim);
}

}  // namespace affinity
