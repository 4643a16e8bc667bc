// Unit tests for src/fault: the deterministic injector, the failure-domain
// state machine and the watchdog monitor. All time here is faked (time
// points are passed in), so nothing sleeps.

#include <gtest/gtest.h>

#include <sys/uio.h>

#include <cerrno>
#include <chrono>
#include <vector>

#include "src/fault/failure_domain.h"
#include "src/fault/fault_plan.h"
#include "src/fault/injector.h"
#include "src/fault/sys_iface.h"

namespace affinity {
namespace fault {
namespace {

// A fake syscall surface: every call succeeds and is counted, so tests can
// tell "forwarded to the real syscall" from "swallowed by the injector".
class FakeSys : public SysIface {
 public:
  int Accept4(int /*core*/, int /*sockfd*/, sockaddr* /*addr*/, socklen_t* /*addrlen*/,
              int /*flags*/) override {
    ++accepts;
    return 100 + accepts;  // a fresh fake fd each time
  }
  int EpollWait(int /*core*/, int /*epfd*/, epoll_event* /*events*/, int /*maxevents*/,
                int /*timeout_ms*/) override {
    ++epoll_waits;
    return 0;
  }
  int Close(int /*core*/, int fd) override {
    ++closes;
    last_closed = fd;
    return 0;
  }
  int AttachFilter(int /*core*/, int /*sockfd*/, int /*level*/, int /*optname*/,
                   const void* /*optval*/, socklen_t /*optlen*/) override {
    ++attaches;
    return 0;
  }
  ssize_t Read(int /*core*/, int /*fd*/, void* /*buf*/, size_t count) override {
    ++reads;
    return static_cast<ssize_t>(count);
  }
  ssize_t Write(int /*core*/, int /*fd*/, const iovec* iov, int iovcnt) override {
    ++writes;
    size_t total = 0;
    for (int i = 0; i < iovcnt; ++i) total += iov[i].iov_len;
    return static_cast<ssize_t>(total);
  }
  int EpollCtl(int /*core*/, int /*epfd*/, int /*op*/, int /*fd*/,
               epoll_event* /*event*/) override {
    ++epoll_ctls;
    return 0;
  }
  int Connect(int /*core*/, int /*sockfd*/, const sockaddr* /*addr*/,
              socklen_t /*addrlen*/) override {
    ++connects;
    return 0;
  }

  int accepts = 0;
  int epoll_waits = 0;
  int closes = 0;
  int attaches = 0;
  int reads = 0;
  int writes = 0;
  int epoll_ctls = 0;
  int connects = 0;
  int last_closed = -1;
};

TEST(FaultInjectorTest, ErrnoWindowCoversExactlyTheScheduledCalls) {
  FakeSys sys;
  // Calls 5, 6, 7 on every core fail with EMFILE; everything else forwards.
  FaultInjector injector(FaultPlan::AcceptErrnoBurst(EMFILE, /*after_calls=*/5, /*count=*/3),
                         /*num_cores=*/2, &sys);
  for (int i = 0; i < 12; ++i) {
    errno = 0;
    int fd = injector.Accept4(0, 3, nullptr, nullptr, 0);
    if (i >= 5 && i < 8) {
      EXPECT_EQ(-1, fd) << "call " << i;
      EXPECT_EQ(EMFILE, errno) << "call " << i;
    } else {
      EXPECT_GT(fd, 0) << "call " << i;
    }
  }
  EXPECT_EQ(9, sys.accepts);  // 12 calls minus the 3 injected
  EXPECT_EQ(3u, injector.Stats().injected[static_cast<int>(CallSite::kAccept4)]);
  EXPECT_EQ(12u, injector.calls(CallSite::kAccept4, 0));
  // Per-core schedules are independent: core 1 has not been called at all.
  EXPECT_EQ(0u, injector.calls(CallSite::kAccept4, 1));
}

TEST(FaultInjectorTest, PerCoreRuleOnlyHitsItsCore) {
  FakeSys sys;
  FaultPlan plan;
  FaultRule rule;
  rule.site = CallSite::kAccept4;
  rule.core = 1;
  rule.action = FaultAction::kErrno;
  rule.err = EIO;
  rule.count = UINT64_MAX;
  plan.rules.push_back(rule);
  FaultInjector injector(plan, /*num_cores=*/2, &sys);
  EXPECT_GT(injector.Accept4(0, 3, nullptr, nullptr, 0), 0);
  EXPECT_EQ(-1, injector.Accept4(1, 3, nullptr, nullptr, 0));
  EXPECT_EQ(EIO, errno);
}

TEST(FaultInjectorTest, ProbabilisticRuleIsDeterministicPerSeed) {
  const int kCalls = 256;
  FaultPlan plan;
  FaultRule rule;
  rule.site = CallSite::kAccept4;
  rule.action = FaultAction::kErrno;
  rule.err = EIO;
  rule.count = UINT64_MAX;
  rule.probability = 0.5;
  plan.rules.push_back(rule);
  plan.seed = 42;

  auto run = [&plan]() {
    FakeSys sys;
    FaultInjector injector(plan, 1, &sys);
    std::vector<bool> failed;
    for (int i = 0; i < kCalls; ++i) {
      failed.push_back(injector.Accept4(0, 3, nullptr, nullptr, 0) < 0);
    }
    return failed;
  };
  std::vector<bool> first = run();
  std::vector<bool> second = run();
  EXPECT_EQ(first, second);  // same seed, same call sequence -> same faults
  int injected = 0;
  for (bool f : first) injected += f ? 1 : 0;
  // A fair-ish coin over 256 calls: neither all-pass nor all-fail.
  EXPECT_GT(injected, kCalls / 8);
  EXPECT_LT(injected, kCalls * 7 / 8);
}

TEST(FaultInjectorTest, KillLatchIsSticky) {
  FakeSys sys;
  FaultInjector injector(FaultPlan::ReactorKill(/*core=*/1, /*after_calls=*/3),
                         /*num_cores=*/2, &sys);
  epoll_event events[4];
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(0, injector.EpollWait(1, 5, events, 4, 0)) << "call " << i;
  }
  // The kill fires on call 3 and every call after it, even though the
  // rule's count window is only 1 call wide.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(SysIface::kKillReactor, injector.EpollWait(1, 5, events, 4, 0)) << "call " << i;
  }
  // The other core never dies.
  EXPECT_EQ(0, injector.EpollWait(0, 5, events, 4, 0));
}

TEST(FaultInjectorTest, InjectedCloseStillReleasesTheFd) {
  FakeSys sys;
  FaultPlan plan;
  FaultRule rule;
  rule.site = CallSite::kClose;
  rule.action = FaultAction::kErrno;
  rule.err = EIO;
  rule.count = UINT64_MAX;
  plan.rules.push_back(rule);
  FaultInjector injector(plan, 1, &sys);
  errno = 0;
  EXPECT_EQ(-1, injector.Close(0, 77));
  EXPECT_EQ(EIO, errno);
  // The descriptor was still handed to the real close -- chaos must not
  // leak fds.
  EXPECT_EQ(1, sys.closes);
  EXPECT_EQ(77, sys.last_closed);
}

TEST(FaultInjectorTest, AttachRefusalHitsTheAttachSite) {
  FakeSys sys;
  FaultInjector injector(FaultPlan::RefuseCbpfAttach(), 1, &sys);
  errno = 0;
  EXPECT_EQ(-1, injector.AttachFilter(0, 3, 1, 2, nullptr, 0));
  EXPECT_EQ(EPERM, errno);
  EXPECT_EQ(0, sys.attaches);
}

// The data-path and client-side sites added for the service layer follow
// the same schedule discipline as accept4: an errno burst covers exactly
// its window, nothing leaks to other sites, and injected errors do NOT
// reach the real syscall (except Close's release guarantee, tested above).
TEST(FaultInjectorTest, DataPathSitesInjectIndependently) {
  FakeSys sys;
  FaultPlan plan;
  for (CallSite site : {CallSite::kRead, CallSite::kWrite, CallSite::kConnect}) {
    FaultRule rule;
    rule.site = site;
    rule.action = FaultAction::kErrno;
    rule.err = site == CallSite::kConnect ? ECONNREFUSED : ECONNRESET;
    rule.after_calls = 1;  // first call forwards, second injects
    rule.count = 1;
    plan.rules.push_back(rule);
  }
  FaultInjector injector(plan, /*num_cores=*/1, &sys);
  char buf[8];

  EXPECT_EQ(8, injector.Read(0, 3, buf, sizeof(buf)));
  errno = 0;
  EXPECT_EQ(-1, injector.Read(0, 3, buf, sizeof(buf)));
  EXPECT_EQ(ECONNRESET, errno);
  EXPECT_EQ(8, injector.Read(0, 3, buf, sizeof(buf)));  // window is 1 call wide

  // A gather write is one call at the kWrite site, however many buffers.
  iovec iov[2] = {{buf, 3}, {buf + 3, 5}};
  EXPECT_EQ(8, injector.Write(0, 3, iov, 2));
  errno = 0;
  EXPECT_EQ(-1, injector.Write(0, 3, iov, 2));
  EXPECT_EQ(ECONNRESET, errno);
  EXPECT_EQ(8, injector.Write(0, 3, iov, 2));  // window is 1 call wide

  EXPECT_EQ(0, injector.Connect(0, 3, nullptr, 0));
  errno = 0;
  EXPECT_EQ(-1, injector.Connect(0, 3, nullptr, 0));
  EXPECT_EQ(ECONNREFUSED, errno);

  // Injected calls never reached the fake; forwarded ones all did.
  EXPECT_EQ(2, sys.reads);
  EXPECT_EQ(2, sys.writes);
  EXPECT_EQ(1, sys.connects);
  InjectorStats stats = injector.Stats();
  EXPECT_EQ(1u, stats.injected[static_cast<int>(CallSite::kRead)]);
  EXPECT_EQ(1u, stats.injected[static_cast<int>(CallSite::kWrite)]);
  EXPECT_EQ(1u, stats.injected[static_cast<int>(CallSite::kConnect)]);
  EXPECT_EQ(0u, stats.injected[static_cast<int>(CallSite::kAccept4)]);
}

TEST(FaultInjectorTest, InjectedEpollCtlFailsWithoutArming) {
  FakeSys sys;
  FaultPlan plan;
  FaultRule rule;
  rule.site = CallSite::kEpollCtl;
  rule.action = FaultAction::kErrno;
  rule.err = ENOSPC;  // the real-world epoll_ctl failure (watch limit)
  rule.count = UINT64_MAX;
  plan.rules.push_back(rule);
  FaultInjector injector(plan, /*num_cores=*/1, &sys);
  errno = 0;
  EXPECT_EQ(-1, injector.EpollCtl(0, 5, EPOLL_CTL_ADD, 9, nullptr));
  EXPECT_EQ(ENOSPC, errno);
  // Unlike Close, a failed arm must NOT have happened underneath: the
  // reactor's recovery path assumes the fd is not registered.
  EXPECT_EQ(0, sys.epoll_ctls);
}

TEST(FaultInjectorTest, CallSiteNamesCoverEverySite) {
  for (int i = 0; i < kNumCallSites; ++i) {
    EXPECT_STRNE("?", CallSiteName(static_cast<CallSite>(i))) << "site " << i;
  }
}

TEST(FaultInjectorTest, OutOfRangeCoreForwardsUninjected) {
  FakeSys sys;
  FaultInjector injector(FaultPlan::AcceptErrnoBurst(EIO, 0, UINT64_MAX), /*num_cores=*/2, &sys);
  EXPECT_GT(injector.Accept4(-1, 3, nullptr, nullptr, 0), 0);
  EXPECT_GT(injector.Accept4(7, 3, nullptr, nullptr, 0), 0);
  EXPECT_EQ(2, sys.accepts);
  EXPECT_EQ(0u, injector.Stats().total());
}

TEST(FailureDomainsTest, MarkDeadCasPicksOneWinner) {
  FailureDomains domains(4);
  EXPECT_FALSE(domains.IsDead(2));
  EXPECT_TRUE(domains.MarkDead(2));   // first reporter wins
  EXPECT_FALSE(domains.MarkDead(2));  // everyone else loses
  EXPECT_TRUE(domains.IsDead(2));
  EXPECT_EQ(1, domains.dead_count());
  EXPECT_TRUE(domains.MarkAlive(2));   // recovery is the mirror image
  EXPECT_FALSE(domains.MarkAlive(2));  // and also single-winner
  EXPECT_FALSE(domains.IsDead(2));
  EXPECT_EQ(0, domains.dead_count());
}

TEST(FailureDomainsTest, BeatsAccumulatePerCore) {
  FailureDomains domains(2);
  domains.Beat(0);
  domains.Beat(0);
  domains.Beat(1);
  EXPECT_EQ(2u, domains.Beats(0));
  EXPECT_EQ(1u, domains.Beats(1));
}

TEST(WatchdogMonitorTest, ReportsFrozenPeersAfterTimeout) {
  using Clock = WatchdogMonitor::Clock;
  FailureDomains domains(3);
  WatchdogMonitor monitor(&domains, /*self=*/0, std::chrono::milliseconds(10));
  Clock::time_point t0 = Clock::time_point() + std::chrono::seconds(1);

  std::vector<int> stalled;
  domains.Beat(1);
  domains.Beat(2);
  monitor.Scan(t0, &stalled);  // first scan just baselines
  EXPECT_TRUE(stalled.empty());

  // Core 1 keeps beating before every scan; core 2 freezes at t0.
  domains.Beat(1);
  monitor.Scan(t0 + std::chrono::milliseconds(5), &stalled);
  EXPECT_TRUE(stalled.empty());  // under the timeout either way

  domains.Beat(1);
  monitor.Scan(t0 + std::chrono::milliseconds(20), &stalled);
  ASSERT_EQ(1u, stalled.size());  // never self, never the live peer
  EXPECT_EQ(2, stalled[0]);

  // Still frozen: reported on every scan until it moves again.
  stalled.clear();
  domains.Beat(1);
  monitor.Scan(t0 + std::chrono::milliseconds(40), &stalled);
  ASSERT_EQ(1u, stalled.size());
  EXPECT_EQ(2, stalled[0]);

  // The peer resumes: its beat advance resets the monitor's baseline.
  stalled.clear();
  domains.Beat(1);
  domains.Beat(2);
  monitor.Scan(t0 + std::chrono::milliseconds(45), &stalled);
  EXPECT_TRUE(stalled.empty());
}

}  // namespace
}  // namespace fault
}  // namespace affinity
