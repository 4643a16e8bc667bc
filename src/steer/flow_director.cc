#include "src/steer/flow_director.h"

#include "src/balance/migration_epoch.h"

namespace affinity {
namespace steer {

const char* KernelSteeringName(KernelSteering steering) {
  switch (steering) {
    case KernelSteering::kFallback:
      return "fallback";
    case KernelSteering::kAttached:
      return "cbpf";
  }
  return "?";
}

FlowDirector::FlowDirector(const FlowDirectorConfig& config)
    : config_(config),
      table_(config.num_groups, config.num_cores),
      picker_(config.num_groups),
      failed_over_(static_cast<size_t>(config.num_cores)) {}

bool FlowDirector::Attach(int fd, std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<sock_filter> prog = BuildFlowDirectorProgram(
      table_.num_groups(), static_cast<uint32_t>(table_.num_cores()), table_.Exceptions());
  if (!AttachReuseportProgram(fd, prog, error, config_.sys)) {
    status_.store(0, std::memory_order_release);
    return false;
  }
  attach_fd_ = fd;
  status_.store(1, std::memory_order_release);
  return true;
}

void FlowDirector::ReprogramLocked() {
  if (status_.load(std::memory_order_relaxed) != 1 || attach_fd_ < 0) {
    return;
  }
  std::vector<GroupException> exceptions = table_.Exceptions();
  if (exceptions.size() > MaxCbpfExceptions()) {
    // The table no longer compresses into one program. The user-space
    // re-steer keeps enforcing it; the kernel keeps the last program.
    return;
  }
  std::vector<sock_filter> prog = BuildFlowDirectorProgram(
      table_.num_groups(), static_cast<uint32_t>(table_.num_cores()), exceptions);
  std::string error;
  if (!AttachReuseportProgram(attach_fd_, prog, &error, config_.sys)) {
    // A kernel that accepted the first program should accept every rebuild;
    // if it stops, degrade rather than steer with a stale table forever.
    status_.store(0, std::memory_order_release);
  }
}

bool FlowDirector::MigrateForCore(CoreId core, BalancePolicy* policy, Migration* out) {
  bool migrated = false;
  MigrateForCoreThisEpoch(policy, core, [&](CoreId thief, CoreId victim) {
    std::lock_guard<std::mutex> lock(mu_);
    uint32_t group = 0;
    if (!picker_.Pick([&](uint32_t g) { return table_.OwnerOf(g) == victim; }, &group)) {
      return;  // the victim owns no groups: all already migrated away
    }
    out->group = group;
    out->from_core = victim;
    out->to_core = thief;
    out->victim_steals = policy->EpochSteals(thief, victim);
    table_.Set(group, thief);
    ReprogramLocked();
    migrated = true;
  });
  return migrated;
}

ParkDistances FlowDirector::FailOverCore(CoreId dead, BalancePolicy* policy) {
  std::lock_guard<std::mutex> lock(mu_);
  ParkDistances parks;
  int num_cores = table_.num_cores();
  if (num_cores < 2) {
    return parks;  // nowhere to park the groups
  }
  // Survivor rotation: nearest distance class first, and within the scan
  // prefer cores the policy reads as non-busy so the failover load spreads
  // away from hot peers. The first class holding a non-busy survivor
  // absorbs all the groups (paying a cross-LLC or cross-node park only when
  // every nearer core is busy); if every survivor is busy, the nearest
  // non-empty class takes them anyway -- a dead owner is worse than a
  // loaded one. Without a topology both passes degrade to the ascending
  // all-survivors scan.
  std::vector<std::vector<CoreId>> classes = topo::NearestFirstPeers(config_.topo, dead, num_cores);
  std::vector<CoreId> targets;
  for (const std::vector<CoreId>& members : classes) {
    for (CoreId c : members) {
      if (!policy->IsBusy(c)) {
        targets.push_back(c);
      }
    }
    if (!targets.empty()) {
      break;
    }
  }
  if (targets.empty()) {
    targets = classes.front();
  }
  std::vector<FailedOverGroup>& parked = failed_over_[static_cast<size_t>(dead)];
  parked.clear();
  uint32_t num_groups = table_.num_groups();
  for (uint32_t group = 0; group < num_groups; ++group) {
    if (table_.OwnerOf(group) != dead) {
      continue;
    }
    CoreId target = targets[parks.total() % targets.size()];
    table_.Set(group, target);
    // A group that an earlier failover parked ON `dead` belongs to some
    // other core's recovery, not dead's: retarget that record in place so
    // the original owner still reclaims it, and keep it out of dead's own
    // parking list (otherwise dead's recovery would steal it).
    bool forwarded = false;
    for (int owner = 0; owner < num_cores; ++owner) {
      if (owner == dead) {
        continue;
      }
      for (FailedOverGroup& fg : failed_over_[static_cast<size_t>(owner)]) {
        if (fg.group == group && fg.target == dead) {
          fg.target = target;
          forwarded = true;
        }
      }
    }
    if (!forwarded) {
      parked.push_back(FailedOverGroup{group, target});
    }
    switch (config_.topo != nullptr
                ? topo::LedgerBucket(config_.topo->Between(dead, target))
                : 1) {
      case 2:
        ++parks.cross_llc;
        break;
      case 3:
        ++parks.cross_node;
        break;
      default:  // same LLC (or SMT sibling); bucket 0 needs target == dead
        ++parks.same_llc;
        break;
    }
  }
  if (parks.total() > 0) {
    ReprogramLocked();
  }
  return parks;
}

size_t FlowDirector::RecoverCore(CoreId core) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FailedOverGroup>& parked = failed_over_[static_cast<size_t>(core)];
  size_t returned = 0;
  for (const FailedOverGroup& fg : parked) {
    // Only undo moves that still stand; groups the balancer re-homed since
    // belong to their new owner now.
    if (table_.OwnerOf(fg.group) != fg.target) {
      continue;
    }
    table_.Set(fg.group, core);
    ++returned;
  }
  parked.clear();
  if (returned > 0) {
    ReprogramLocked();
  }
  return returned;
}

std::vector<Migration> FlowDirector::RunEpoch(BalancePolicy* policy, int num_cores) {
  std::vector<Migration> out;
  for (CoreId core = 0; core < num_cores; ++core) {
    Migration m;
    if (MigrateForCore(core, policy, &m)) {
      out.push_back(m);
    }
  }
  return out;
}

}  // namespace steer
}  // namespace affinity
