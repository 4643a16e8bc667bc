// FlowDirector: live flow-group steering + the 100 ms long-term balancer
// for the real-socket runtime -- the third leg of the Affinity-Accept design
// (paper Sections 3.1 and 3.3.2) on real kernel sockets.
//
// The simulator routes flow groups to cores through the SimNic's FDir table
// and repairs skew with FlowGroupMigrator. The runtime has no NIC to
// program, but SO_REUSEPORT's cBPF hook is the same mechanism one layer up:
// a program that maps each SYN's flow group (source port low bits) to a
// listen shard. This class owns the group->core table, compiles it into
// that program (src/steer/cbpf.h), and runs the paper's migration rule --
// every 100 ms each non-busy core pulls one flow group from the victim it
// stole from most -- through the same epoch driver
// (src/balance/migration_epoch.h) the simulator uses, so both sides make
// identical (victim, group, destination) decisions from the same history.
//
// Degradation: when the kernel refuses the cBPF attach (sandboxes, old
// kernels) the director runs in kFallback -- SYNs spread by the kernel's
// default reuseport hash, and the accepting reactor re-steers each
// connection to the owning core's queue in user space. Serving stays
// correct and migration still converges; only the "accept on the owning
// core" half of the win is lost. The same user-space re-steer runs in
// kAttached mode too, catching connections that were already queued on a
// shard when their group migrated away.
//
// State: the steering table, the cBPF program's attach state and the
// failover parking records -- nothing else. The director keeps no move log:
// the runtime records balancer moves as kMigrate trace events and in
// rt_migrations, and failover moves in rt_failover_group_moves and the
// rt_park_* distance counters.
//
// Thread safety: table reads are lock-free (reactor accept paths); all
// writes -- migrations, failover parking, reprogramming -- and Snapshot()
// serialize on one mutex. Migrations take the director mutex before the
// BalancePolicy mutex; no caller holds them in the reverse order.

#ifndef AFFINITY_SRC_STEER_FLOW_DIRECTOR_H_
#define AFFINITY_SRC_STEER_FLOW_DIRECTOR_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/balance/balance_policy.h"
#include "src/balance/migration_epoch.h"
#include "src/fault/sys_iface.h"
#include "src/steer/steering_table.h"
#include "src/topo/topology.h"

namespace affinity {
namespace steer {

// Where SYN steering currently happens.
enum class KernelSteering : uint8_t {
  kFallback,  // kernel default reuseport hash + user-space re-steer
  kAttached,  // cBPF program delivers each SYN to its owning shard
};

const char* KernelSteeringName(KernelSteering steering);

// One long-term-balancer decision, the runtime twin of the simulator's
// MigrationRecord.
struct Migration {
  uint32_t group = 0;
  CoreId from_core = kNoCore;
  CoreId to_core = kNoCore;
  uint64_t victim_steals = 0;  // why: steals charged to the victim this epoch
};

struct FlowDirectorConfig {
  uint32_t num_groups = 4096;  // power of two (Section 3.1's 4,096)
  int num_cores = 1;
  // Syscall surface for the cBPF attach; nullptr = real setsockopt. Chaos
  // runs pass the FaultInjector to exercise the kFallback degradation.
  fault::SysIface* sys = nullptr;
  // Hardware distance model (not owned, may be null = flat). Failover parks
  // a dead core's groups on its nearest surviving peers instead of plain
  // round-robin over all survivors.
  const topo::Topology* topo = nullptr;
};

// One failover's parking moves, split by how far each group travelled from
// its dead owner. A flat topology folds everything into same_llc, keeping
// the ledger conservation law intact.
struct ParkDistances {
  uint64_t same_llc = 0;
  uint64_t cross_llc = 0;   // different LLC, same node
  uint64_t cross_node = 0;
  uint64_t total() const { return same_llc + cross_llc + cross_node; }
};

class FlowDirector {
 public:
  explicit FlowDirector(const FlowDirectorConfig& config);

  FlowDirector(const FlowDirector&) = delete;
  FlowDirector& operator=(const FlowDirector&) = delete;

  // Compiles the current table and attaches it to the reuseport group `fd`
  // belongs to; keeps `fd` for migration-time reprogramming (the caller owns
  // the fd and must outlive the last migration -- the Runtime joins its
  // reactors before closing shards). On refusal returns false with *error
  // set and stays in kFallback; that is degradation, not failure.
  bool Attach(int fd, std::string* error);

  KernelSteering kernel_steering() const {
    return status_.load(std::memory_order_acquire) == 1 ? KernelSteering::kAttached
                                                        : KernelSteering::kFallback;
  }

  const SteeringTable& table() const { return table_; }

  // Calls fn(kernel_steering(), table()) under the director mutex: fn sees
  // no half-done rewrite, and callers that each follow their own rewrite
  // run in rewrite order, so the last one sees the final state.
  template <typename Fn>
  void Snapshot(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    fn(kernel_steering(), table_);
  }
  CoreId OwnerOfPort(uint16_t src_port) const {
    return table_.OwnerOf(table_.GroupOfPort(src_port));
  }

  // One core's Section 3.3.2 decision: if `core` is non-busy and stole this
  // epoch, move one flow group from its top victim to itself and reprogram
  // the kernel. Returns true (with *out filled) when a group moved. Epoch
  // steal counts reset per the shared migration_epoch.h driver either way.
  bool MigrateForCore(CoreId core, BalancePolicy* policy, Migration* out);

  // A centralized epoch in core order -- what the simulator's
  // FlowGroupMigrator::RunEpoch does; used by the sim/rt parity test.
  std::vector<Migration> RunEpoch(BalancePolicy* policy, int num_cores);

  // --- failure domains (src/fault watchdog failover) ---

  // Mass-migrates every group owned by `dead` to the surviving cores.
  // Targets come from the dead core's nearest distance class with a
  // non-busy member (same LLC before same node before remote; plain
  // round-robin over all survivors without a topology), rotating over that
  // class's non-busy members so one failover cannot bury an already-
  // overloaded peer; if every survivor is busy the nearest non-empty class
  // absorbs the groups anyway -- a dead owner is worse than a loaded one.
  // Remembers (group, target) pairs for RecoverCore and reprograms the
  // kernel once. Groups that were themselves parked on `dead` by an earlier
  // failover are chain-forwarded: their original owner's parking record is
  // retargeted so *its* recovery still finds them, and they do not enter
  // `dead`'s own record. Returns this failover's moves split by distance
  // (total() is the number of groups moved). Called by the failover winner
  // under the runtime's failover mutex.
  ParkDistances FailOverCore(CoreId dead, BalancePolicy* policy);

  // Reverses FailOverCore: groups that are still where the failover parked
  // them come home to `core`; groups the balancer has since moved elsewhere
  // stay (their new owner earned them). One reprogram. Returns groups
  // returned.
  size_t RecoverCore(CoreId core);

 private:
  void ReprogramLocked();

  FlowDirectorConfig config_;
  SteeringTable table_;
  std::atomic<int> status_{0};  // 0 = kFallback, 1 = kAttached
  mutable std::mutex mu_;
  int attach_fd_ = -1;
  // The shared Section 3.3.2 group choice (migration_epoch.h); guarded by
  // mu_ like the table it reads.
  FlowGroupPicker picker_;
  // Per-core parking record from the last FailOverCore: which groups left
  // and where they went, so RecoverCore can bring back exactly the ones the
  // balancer has not since reassigned.
  struct FailedOverGroup {
    uint32_t group = 0;
    CoreId target = kNoCore;
  };
  std::vector<std::vector<FailedOverGroup>> failed_over_;
};

}  // namespace steer
}  // namespace affinity

#endif  // AFFINITY_SRC_STEER_FLOW_DIRECTOR_H_
