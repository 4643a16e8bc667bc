#include "src/balance/balance_policy.h"

#include <algorithm>

namespace affinity {

BalancePolicy::BalancePolicy(int num_cores, int max_local_len, const BalanceTuning& tuning,
                             const topo::Topology* topo)
    : num_cores_(num_cores),
      high_(static_cast<size_t>(std::max(1.0, tuning.high_watermark * max_local_len))),
      low_(static_cast<size_t>(std::max(1.0, tuning.low_watermark * max_local_len))),
      // "EWMA's alpha parameter is set to one over twice the max local
      //  accept queue length" (Section 3.3.1).
      alpha_(1.0 / (2.0 * static_cast<double>(max_local_len))),
      steal_ratio_(tuning.steal_ratio),
      cores_(new CachePadded<CoreSlot>[static_cast<size_t>(num_cores)]) {
  assert(num_cores > 0 && num_cores <= kMaxCores);
  assert(max_local_len > 0);
  assert(steal_ratio_ >= 1);
  assert(topo == nullptr || topo->num_cores() >= num_cores);
  for (CoreId core = 0; core < num_cores; ++core) {
    CoreSlot& slot = cores_[Slot(core)].value;
    slot.classes = topo::NearestFirstPeers(topo, core, num_cores);
    slot.cursors.assign(slot.classes.size(), 0);
    slot.epoch_steals.assign(static_cast<size_t>(num_cores), 0);
  }
}

void BalancePolicy::BindOwner(CoreId core) {
  cores_[Slot(core)].value.owner.store(std::this_thread::get_id(), std::memory_order_relaxed);
}

double BalancePolicy::UpdateEwma(CoreId core, size_t len) {
  std::atomic<double>& ewma = cores_[Slot(core)].value.ewma;
  const double sample = static_cast<double>(len);
  double v = ewma.load(std::memory_order_relaxed);
  for (;;) {
    const double next = v + alpha_ * (sample - v);
    if (ewma.compare_exchange_weak(v, next, std::memory_order_relaxed)) {
      return next;
    }
  }
}

bool BalancePolicy::SetBusy(CoreId core, bool busy) {
  std::atomic<uint64_t>& word = bits_.busy[Word(core)];
  const uint64_t mask = Mask(core);
  // Read first: a report that flips nothing leaves the line shared.
  if (((word.load(std::memory_order_relaxed) & mask) != 0) == busy) {
    return false;
  }
  const uint64_t old = busy ? word.fetch_or(mask, std::memory_order_relaxed)
                            : word.fetch_and(~mask, std::memory_order_relaxed);
  if (((old & mask) != 0) == busy) {
    return false;  // a racing reporter made this flip
  }
  (busy ? bits_.to_busy : bits_.to_nonbusy).fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool BalancePolicy::ClearIfDecayed(CoreId core, double ewma) {
  if (ewma < static_cast<double>(low_)) {
    return SetBusy(core, false) && !IsForcedBusy(core);
  }
  return false;
}

bool BalancePolicy::OnEnqueueBatch(CoreId core, size_t /*count*/, size_t len_after) {
  const double ewma = UpdateEwma(core, len_after);
  // The high watermark reads the instantaneous length: a load spike must
  // flip the bit quickly so other cores start stealing.
  if (len_after > high_) {
    bool flipped = SetBusy(core, true);
    if (flipped) {
      // Seed the average with the spike; otherwise a fresh EWMA (still near
      // zero) would clear the bit on the very next enqueue. A thief's
      // dequeue report computed from the average before this store can
      // still clear the bit just set, and the next report above the high
      // watermark sets it again. No serial order does that, but the bit is
      // advisory -- no ledger or ring handoff reads it -- so it costs at
      // most a missed steal.
      cores_[Slot(core)].value.ewma.store(static_cast<double>(len_after),
                                          std::memory_order_relaxed);
    }
    return flipped && !IsForcedBusy(core);
  }
  return ClearIfDecayed(core, ewma);
}

bool BalancePolicy::OnDequeueBatch(CoreId core, size_t /*count*/, size_t len_after) {
  return ClearIfDecayed(core, UpdateEwma(core, len_after));
}

void BalancePolicy::SetForcedBusy(CoreId core, bool forced) {
  std::atomic<uint64_t>& word = bits_.forced[Word(core)];
  const uint64_t mask = Mask(core);
  if (((word.load(std::memory_order_relaxed) & mask) != 0) == forced) {
    return;
  }
  if (forced) {
    word.fetch_or(mask, std::memory_order_relaxed);
  } else {
    word.fetch_and(~mask, std::memory_order_relaxed);
  }
}

bool BalancePolicy::ShouldStealThisTime(CoreId core) {
  AssertOwner(core);
  int& counter = cores_[Slot(core)].value.share_counter;
  counter = (counter + 1) % (steal_ratio_ + 1);
  return counter == 0;
}

CoreId BalancePolicy::PickBusyVictim(CoreId thief) {
  AssertOwner(thief);
  if (!AnyBusy()) {
    return kNoCore;
  }
  auto busy = [this](CoreId candidate) { return IsBusy(candidate); };
  return Scan(thief, busy);
}

void BalancePolicy::OnSteal(CoreId thief, CoreId victim) {
  AssertOwner(thief);
  CoreSlot& slot = cores_[Slot(thief)].value;
  ++slot.epoch_steals[Slot(victim)];
  ++slot.total_steals;
}

CoreId BalancePolicy::TopVictimOf(CoreId thief) const {
  AssertOwner(thief);
  const std::vector<uint64_t>& row = cores_[Slot(thief)].value.epoch_steals;
  CoreId best = kNoCore;
  uint64_t best_count = 0;
  for (CoreId victim = 0; victim < num_cores_; ++victim) {
    uint64_t count = row[Slot(victim)];
    if (count > best_count) {
      best_count = count;
      best = victim;
    }
  }
  return best;
}

void BalancePolicy::ResetEpochCounts(CoreId thief) {
  AssertOwner(thief);
  std::vector<uint64_t>& row = cores_[Slot(thief)].value.epoch_steals;
  std::fill(row.begin(), row.end(), 0);
}

uint64_t BalancePolicy::EpochSteals(CoreId thief, CoreId victim) const {
  AssertOwner(thief);
  return cores_[Slot(thief)].value.epoch_steals[Slot(victim)];
}

uint64_t BalancePolicy::total_steals() const {
  uint64_t total = 0;
  for (CoreId core = 0; core < num_cores_; ++core) {
    total += cores_[Slot(core)].value.total_steals;
  }
  return total;
}

void BalancePolicy::ResetTotalSteals() {
  for (CoreId core = 0; core < num_cores_; ++core) {
    cores_[Slot(core)].value.total_steals = 0;
  }
}

}  // namespace affinity
