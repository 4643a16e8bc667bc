// FaultPlan: a declarative, seeded schedule of syscall faults.
//
// A plan is a list of rules, each keyed by (call site, core) and armed by
// the per-(site, core) call counter the injector maintains: "the 20th
// accept4 on core 2 and the 49 after it fail with EMFILE", "core 1's
// epoll_wait stalls for 500 ms at call 100", "the cBPF attach is refused".
// Determinism comes from counting calls instead of reading clocks, and from
// deriving every probabilistic decision from a hash of (seed, site, core,
// call index) -- two runs of the same plan against the same per-core call
// sequences inject identical faults, regardless of how the reactor threads
// interleave against each other. That is what lets the CI chaos matrix
// assert exact conservation instead of eyeballing flakes.

#ifndef AFFINITY_SRC_FAULT_FAULT_PLAN_H_
#define AFFINITY_SRC_FAULT_FAULT_PLAN_H_

#include <cerrno>
#include <cstdint>
#include <vector>

namespace affinity {
namespace fault {

// The reactor call sites the injector can interpose (see SysIface).
enum class CallSite : uint8_t {
  kAccept4 = 0,
  kEpollWait = 1,
  kClose = 2,
  kAttachFilter = 3,
  // The request/response data path (svc handlers + held-conn epoll arming):
  kRead = 4,
  kWrite = 5,
  kEpollCtl = 6,
  // The client side: rt::LoadClient's connect(2), keyed by client thread.
  kConnect = 7,
};
inline constexpr int kNumCallSites = 8;

const char* CallSiteName(CallSite site);

enum class FaultAction : uint8_t {
  kErrno,  // fail the call with `err` (Close still releases the fd)
  kDelay,  // sleep `duration_us`, then perform the real call
  kStall,  // the blocking wait (kEpollWait) only: block `duration_us`
           // (interruptible by stop) -- the reactor stops heartbeating,
           // which is what trips the watchdog
  kKill,   // the blocking wait only: return SysIface::kKillReactor,
           // permanently -- the reactor exits Run() as if its thread died
};

struct FaultRule {
  CallSite site = CallSite::kAccept4;
  int core = -1;  // -1 = every core
  FaultAction action = FaultAction::kErrno;
  int err = EIO;              // kErrno: the errno to fail with
  uint64_t duration_us = 0;   // kDelay / kStall: how long
  uint64_t after_calls = 0;   // arm once this (site, core) call count is reached
  uint64_t count = 1;         // how many consecutive calls the rule covers
  double probability = 1.0;   // per-eligible-call coin, hashed from the seed
};

struct FaultPlan {
  uint64_t seed = 1;
  std::vector<FaultRule> rules;

  bool empty() const { return rules.empty(); }

  // --- canned plans for the chaos matrix ---

  // `core`'s epoll_wait stalls for `stall_ms` starting at its
  // `after_calls`-th call: a reactor wedge that later resolves. An idle
  // reactor waits with no timer until it is rung or a deadline or tick is
  // due, so an epoll_wait count measures wakeups, not time: under load it
  // grows with traffic, and an idle reactor may take seconds to reach it.
  static FaultPlan ReactorStall(int core, uint64_t after_calls, uint64_t stall_ms) {
    FaultPlan plan;
    FaultRule rule;
    rule.site = CallSite::kEpollWait;
    rule.core = core;
    rule.action = FaultAction::kStall;
    rule.duration_us = stall_ms * 1000;
    rule.after_calls = after_calls;
    plan.rules.push_back(rule);
    return plan;
  }

  // `core`'s reactor dies at its `after_calls`-th epoll_wait (a count of
  // wakeups, as above) and never comes back.
  static FaultPlan ReactorKill(int core, uint64_t after_calls) {
    FaultPlan plan;
    FaultRule rule;
    rule.site = CallSite::kEpollWait;
    rule.core = core;
    rule.action = FaultAction::kKill;
    rule.after_calls = after_calls;
    plan.rules.push_back(rule);
    return plan;
  }

  // Every core's accept4 fails with `err` for `count` calls starting at
  // `after_calls` -- the EMFILE/ENFILE storm shape.
  static FaultPlan AcceptErrnoBurst(int err, uint64_t after_calls, uint64_t count) {
    FaultPlan plan;
    FaultRule rule;
    rule.site = CallSite::kAccept4;
    rule.core = -1;
    rule.action = FaultAction::kErrno;
    rule.err = err;
    rule.after_calls = after_calls;
    rule.count = count;
    plan.rules.push_back(rule);
    return plan;
  }

  // Generic errno burst at any site: `count` calls at `site` on `core`
  // (-1 = every core) fail with `err` starting at call `after_calls`. The
  // building block for data-path (read/write) and client-side (connect)
  // chaos shapes.
  static FaultPlan ErrnoBurst(CallSite site, int core, int err, uint64_t after_calls,
                              uint64_t count) {
    FaultPlan plan;
    FaultRule rule;
    rule.site = site;
    rule.core = core;
    rule.action = FaultAction::kErrno;
    rule.err = err;
    rule.after_calls = after_calls;
    rule.count = count;
    plan.rules.push_back(rule);
    return plan;
  }

  // Two reactors die, staggered: the correlated-failure shape where the
  // second death lands on a survivor set that already absorbed a failover
  // (failover-onto-failed-over).
  static FaultPlan TwoReactorsDie(int first_core, uint64_t first_after, int second_core,
                                  uint64_t second_after) {
    FaultPlan plan;
    FaultRule rule;
    rule.site = CallSite::kEpollWait;
    rule.action = FaultAction::kKill;
    rule.core = first_core;
    rule.after_calls = first_after;
    plan.rules.push_back(rule);
    rule.core = second_core;
    rule.after_calls = second_after;
    plan.rules.push_back(rule);
    return plan;
  }

  // The kernel refuses the SO_ATTACH_REUSEPORT_CBPF attach outright.
  static FaultPlan RefuseCbpfAttach() {
    FaultPlan plan;
    FaultRule rule;
    rule.site = CallSite::kAttachFilter;
    rule.core = -1;
    rule.action = FaultAction::kErrno;
    rule.err = EPERM;
    rule.after_calls = 0;
    rule.count = UINT64_MAX;
    plan.rules.push_back(rule);
    return plan;
  }
};

}  // namespace fault
}  // namespace affinity

#endif  // AFFINITY_SRC_FAULT_FAULT_PLAN_H_
