// Reactor failure domains: per-core heartbeats and an alive/dead state word.
//
// Each reactor ticks its own heartbeat once per loop iteration (one relaxed
// store on a private cache line); an idle reactor's wait ends by its next
// watchdog tick, a quarter of the timeout, so it still beats that often. Every reactor also runs a WatchdogMonitor
// over its peers' heartbeats, piggybacked on the same periodic tick as the
// FlowDirector's 100 ms epoch: a peer whose heartbeat has not advanced for
// the configured timeout is stalled or dead. Detection is cooperative --
// any peer may notice first -- but the alive->dead transition is a CAS, so
// exactly one reactor wins the right to run the failover actions (mark the
// victim permanently busy, migrate its flow groups, adopt its listen
// shard). Recovery is the mirror image: a stalled reactor that resumes sees
// its own state is kDead and CASes itself back, reversing the failover.
//
// This is deliberately NOT a consensus protocol: all reactors share one
// address space, so a single atomic word per core is ground truth. The
// failure model it covers is a wedged or dead *thread* (injected stalls and
// kills in CI; runaway handlers or lost threads in production), not a
// partitioned machine.

#ifndef AFFINITY_SRC_FAULT_FAILURE_DOMAIN_H_
#define AFFINITY_SRC_FAULT_FAILURE_DOMAIN_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

namespace affinity {
namespace fault {

class FailureDomains {
 public:
  enum class CoreState : uint32_t { kAlive = 0, kDead = 1 };

  explicit FailureDomains(int num_cores)
      : num_cores_(num_cores < 1 ? 1 : num_cores),
        slots_(new Slot[static_cast<size_t>(num_cores_)]) {}

  int num_cores() const { return num_cores_; }

  // One loop iteration's "I am alive" tick; relaxed, core-private line.
  void Beat(int core) { slots_[core].beats.fetch_add(1, std::memory_order_relaxed); }

  uint64_t Beats(int core) const { return slots_[core].beats.load(std::memory_order_relaxed); }

  bool IsDead(int core) const {
    return slots_[core].state.load(std::memory_order_acquire) ==
           static_cast<uint32_t>(CoreState::kDead);
  }

  // Alive -> dead; true when this caller won the transition (and therefore
  // owns the failover actions). Callers serialize the actions themselves
  // (the runtime holds one failover mutex across transition + actions).
  bool MarkDead(int core) {
    uint32_t expected = static_cast<uint32_t>(CoreState::kAlive);
    return slots_[core].state.compare_exchange_strong(
        expected, static_cast<uint32_t>(CoreState::kDead), std::memory_order_acq_rel);
  }

  // Dead -> alive; true when this caller won the recovery.
  bool MarkAlive(int core) {
    uint32_t expected = static_cast<uint32_t>(CoreState::kDead);
    return slots_[core].state.compare_exchange_strong(
        expected, static_cast<uint32_t>(CoreState::kAlive), std::memory_order_acq_rel);
  }

  int dead_count() const {
    int count = 0;
    for (int c = 0; c < num_cores_; ++c) {
      if (IsDead(c)) ++count;
    }
    return count;
  }

 private:
  // 64-byte slot per core: heartbeat and state never false-share across
  // reactors.
  struct alignas(64) Slot {
    std::atomic<uint64_t> beats{0};
    std::atomic<uint32_t> state{0};
  };

  int num_cores_;
  std::unique_ptr<Slot[]> slots_;
};

// One reactor's private view of its peers' heartbeats. Scan() compares each
// peer's beat count against the last value this monitor saw and reports
// peers that have not advanced within the timeout. Monitors keep no shared
// state: several reactors may report the same stalled peer, and the
// FailureDomains CAS picks the single winner.
class WatchdogMonitor {
 public:
  using Clock = std::chrono::steady_clock;

  WatchdogMonitor(const FailureDomains* domains, int self, std::chrono::nanoseconds timeout)
      : domains_(domains),
        self_(self),
        timeout_(timeout),
        seen_(static_cast<size_t>(domains->num_cores())) {}

  // Appends to *stalled every peer (never self_) whose heartbeat has been
  // frozen for longer than the timeout. A stalled peer is reported on every
  // scan until its heartbeat moves again.
  void Scan(Clock::time_point now, std::vector<int>* stalled) {
    for (int core = 0; core < domains_->num_cores(); ++core) {
      if (core == self_) {
        continue;
      }
      Seen& seen = seen_[static_cast<size_t>(core)];
      uint64_t beats = domains_->Beats(core);
      if (!seen.initialized || beats != seen.beats) {
        seen.initialized = true;
        seen.beats = beats;
        seen.last_advance = now;
        continue;
      }
      if (now - seen.last_advance > timeout_) {
        stalled->push_back(core);
      }
    }
  }

 private:
  struct Seen {
    bool initialized = false;
    uint64_t beats = 0;
    Clock::time_point last_advance{};
  };

  const FailureDomains* domains_;
  int self_;
  std::chrono::nanoseconds timeout_;
  std::vector<Seen> seen_;
};

}  // namespace fault
}  // namespace affinity

#endif  // AFFINITY_SRC_FAULT_FAILURE_DOMAIN_H_
