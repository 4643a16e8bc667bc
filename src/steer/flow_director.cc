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
      picker_(config.num_groups, config.min_epochs_between_moves),
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
  ++cbpf_updates_;
  return true;
}

void FlowDirector::ReprogramLocked() {
  if (status_.load(std::memory_order_relaxed) != 1 || attach_fd_ < 0) {
    return;
  }
  std::vector<GroupException> exceptions = table_.Exceptions();
  if (exceptions.size() > config_.max_exceptions) {
    // The table no longer compresses into one program. The user-space
    // re-steer keeps enforcing it; the kernel keeps the last program.
    ++cbpf_update_skips_;
    return;
  }
  std::vector<sock_filter> prog = BuildFlowDirectorProgram(
      table_.num_groups(), static_cast<uint32_t>(table_.num_cores()), exceptions);
  std::string error;
  if (AttachReuseportProgram(attach_fd_, prog, &error, config_.sys)) {
    ++cbpf_updates_;
  } else {
    // A kernel that accepted the first program should accept every rebuild;
    // if it stops, degrade rather than steer with a stale table forever.
    status_.store(0, std::memory_order_release);
  }
}

bool FlowDirector::MigrateForCore(CoreId core, BalancePolicy* policy, uint64_t tick,
                                  Migration* out, bool* suppressed) {
  bool migrated = false;
  if (suppressed != nullptr) {
    *suppressed = false;
  }
  MigrateForCoreThisEpoch(policy, core, [&](CoreId thief, CoreId victim) {
    std::lock_guard<std::mutex> lock(mu_);
    uint32_t group = 0;
    bool damped = false;
    if (!picker_.Pick(
            tick, [&](uint32_t g) { return table_.OwnerOf(g) == victim; }, &group, &damped)) {
      // Either the victim owns no groups (all already migrated away) or
      // everything it owns is still cooling off from a recent move -- only
      // the latter counts as a suppression.
      if (damped) {
        ++migrations_suppressed_;
        if (suppressed != nullptr) {
          *suppressed = true;
        }
      }
      return;
    }
    Migration m;
    m.group = group;
    m.from_core = victim;
    m.to_core = thief;
    m.tick = tick;
    m.victim_steals = policy->EpochSteals(thief, victim);
    table_.Set(group, thief);
    picker_.NoteMove(group, tick);
    ReprogramLocked();
    history_.push_back(m);
    if (out != nullptr) {
      *out = m;
    }
    migrated = true;
  });
  return migrated;
}

size_t FlowDirector::FailOverCore(CoreId dead, BalancePolicy* policy, uint64_t tick) {
  std::lock_guard<std::mutex> lock(mu_);
  int num_cores = table_.num_cores();
  if (num_cores < 2) {
    return 0;  // nowhere to park the groups
  }
  // Survivor rotation: nearest distance class first, and within the scan
  // prefer cores the policy reads as non-busy so the failover load spreads
  // away from hot peers. The first class holding a non-busy survivor
  // absorbs all the groups (paying a cross-LLC or cross-node park only when
  // every nearer core is busy); if every survivor is busy, the nearest
  // non-empty class takes them anyway -- a dead owner is worse than a
  // loaded one. Without a topology both passes degrade to the ascending
  // all-survivors scan. Lock order: director mutex, then policy mutex.
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
  size_t moved = 0;
  uint32_t num_groups = table_.num_groups();
  for (uint32_t group = 0; group < num_groups; ++group) {
    if (table_.OwnerOf(group) != dead) {
      continue;
    }
    CoreId target = targets[moved % targets.size()];
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
        ++park_distances_.cross_llc;
        break;
      case 3:
        ++park_distances_.cross_node;
        break;
      default:  // same LLC (or SMT sibling); bucket 0 needs target == dead
        ++park_distances_.same_llc;
        break;
    }
    Migration m;
    m.group = group;
    m.from_core = dead;
    m.to_core = target;
    m.tick = tick;
    m.victim_steals = 0;  // failover, not a steal-driven move
    history_.push_back(m);
    ++moved;
  }
  if (moved > 0) {
    ReprogramLocked();
  }
  return moved;
}

size_t FlowDirector::RecoverCore(CoreId core, uint64_t tick) {
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
    Migration m;
    m.group = fg.group;
    m.from_core = fg.target;
    m.to_core = core;
    m.tick = tick;
    m.victim_steals = 0;
    history_.push_back(m);
    ++returned;
  }
  parked.clear();
  if (returned > 0) {
    ReprogramLocked();
  }
  return returned;
}

std::vector<Migration> FlowDirector::RunEpoch(BalancePolicy* policy, int num_cores,
                                              uint64_t tick) {
  std::vector<Migration> out;
  for (CoreId core = 0; core < num_cores; ++core) {
    Migration m;
    if (MigrateForCore(core, policy, tick, &m)) {
      out.push_back(m);
    }
  }
  return out;
}

std::vector<Migration> FlowDirector::history() const {
  std::lock_guard<std::mutex> lock(mu_);
  return history_;
}

uint64_t FlowDirector::migrations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return history_.size();
}

ParkDistances FlowDirector::park_distances() const {
  std::lock_guard<std::mutex> lock(mu_);
  return park_distances_;
}

uint64_t FlowDirector::cbpf_updates() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cbpf_updates_;
}

uint64_t FlowDirector::cbpf_update_skips() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cbpf_update_skips_;
}

uint64_t FlowDirector::migrations_suppressed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return migrations_suppressed_;
}

}  // namespace steer
}  // namespace affinity
