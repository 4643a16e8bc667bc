// Tests of the benchmark's own code: the /proc parser, the percentiles,
// the ledger check, the CPU plan, and a short run of each workload.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <string>
#include <vector>

#include "rtbench/bench.h"
#include "rtbench/ledger.h"
#include "rtbench/plan.h"
#include "rtbench/procfs.h"
#include "rtbench/stats.h"

namespace rtbench {
namespace {

// A stat line whose comm holds spaces and ')'; every field after the comm
// is its proc(5) number, except utime (14), stime (15), processor (39).
std::string StatLine(const std::string& comm) {
  std::string line = "4242 (" + comm + ") S";
  for (int field = 4; field <= 52; ++field) {
    int v = field == 14 ? 111 : field == 15 ? 222 : field == 39 ? 3 : field;
    line += " " + std::to_string(v);
  }
  return line + "\n";
}

TEST(ProcfsTest, ParsesStatWhoseCommHoldsSpacesAndParens) {
  TaskStat st;
  ASSERT_TRUE(ParseTaskStat(StatLine("rt reactor) (1 ) x"), &st));
  EXPECT_EQ(st.comm, "rt reactor) (1 ) x");
  EXPECT_EQ(st.utime_ticks, 111u);
  EXPECT_EQ(st.stime_ticks, 222u);
  EXPECT_EQ(st.processor, 3);
}

TEST(ProcfsTest, RejectsTruncatedStat) {
  TaskStat st;
  EXPECT_FALSE(ParseTaskStat("4242 (name S 1 2 3", &st));
  EXPECT_FALSE(ParseTaskStat("4242 (name) S 1 2 3", &st));
}

TEST(ProcfsTest, SamplesTheCallingThread) {
  ThreadSample s = SampleThread(CurrentTid());
  ASSERT_TRUE(s.ok);
  EXPECT_GT(s.counters.cpu_ns, 0u);
  EXPECT_FALSE(s.allowed.empty());
  EXPECT_NE(std::find(s.allowed.begin(), s.allowed.end(), s.processor), s.allowed.end());
  EXPECT_GE(ReadTimeWait(), 0);
}

LatencyHist HistOf(const std::vector<int64_t>& samples) {
  LatencyHist h;
  for (int64_t v : samples) {
    h.Add(v);
  }
  return h;
}

// Connects to `listener`, then closes both ends: the client first and in
// order (it keeps TIME_WAIT), or with SO_LINGER{1,0} (nothing lingers).
void ConnectAndClose(int listener, uint16_t port, bool rst) {
  int client = socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  ASSERT_EQ(connect(client, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  int server = accept(listener, nullptr, nullptr);
  ASSERT_GE(server, 0);
  if (rst) {
    linger lg{1, 0};
    setsockopt(client, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  }
  close(client);
  close(server);
}

TEST(ProcfsTest, CountsTimeWaitOnlyOnTheGivenPorts) {
  int listener = socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(listen(listener, 4), 0);
  ASSERT_EQ(getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const uint16_t port = ntohs(addr.sin_port);

  ConnectAndClose(listener, port, /*rst=*/true);
  EXPECT_EQ(CountTimeWait({port}), 0);
  ConnectAndClose(listener, port, /*rst=*/false);
  long tw = 0;
  for (int i = 0; i < 100 && tw == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    tw = CountTimeWait({port});
  }
  EXPECT_EQ(tw, 1);
  EXPECT_EQ(CountTimeWait({static_cast<uint16_t>(port + 1)}), 0);
  close(listener);
}

TEST(StatsTest, PercentilesOfTinySamples) {
  EXPECT_EQ(LatencyHist().Percentile(0.5), 0);
  EXPECT_EQ(Median({}), 0);
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(HistOf({7}).Percentile(q), 7) << q;  // exact below 128 ns
  }
  EXPECT_EQ(HistOf({2, 1}).Percentile(0.5), 1);
  EXPECT_EQ(HistOf({2, 1}).Percentile(0.51), 2);
  EXPECT_EQ(HistOf({2, 1}).Percentile(1.0), 2);
  EXPECT_NEAR(HistOf({50'000}).Percentile(0.5), 50'000, 50'000 * 0.008);
  EXPECT_EQ(Median({2, 1}), 1.5);
  EXPECT_EQ(Median({3, 1, 2}), 2);
}

TEST(StatsTest, PercentilesOfBimodalSampleNeverFallBetweenModes) {
  std::vector<int64_t> exact(90, 10);
  exact.insert(exact.end(), 10, 100);
  LatencyHist h = HistOf(exact);
  EXPECT_EQ(h.Percentile(0.5), 10);
  EXPECT_EQ(h.Percentile(0.9), 10);
  EXPECT_EQ(h.Percentile(0.91), 100);
  EXPECT_EQ(h.Percentile(0.99), 100);

  LatencyHist wide = HistOf(std::vector<int64_t>(900, 20'000));
  wide.Merge(HistOf(std::vector<int64_t>(100, 2'000'000)));
  EXPECT_EQ(wide.count(), 1000u);
  EXPECT_NEAR(wide.Percentile(0.5), 20'000, 20'000 * 0.008);
  EXPECT_NEAR(wide.Percentile(0.9), 20'000, 20'000 * 0.008);
  EXPECT_NEAR(wide.Percentile(0.91), 2'000'000, 2'000'000 * 0.008);
}

TEST(LedgerTest, BalancedWithinOneOpPerConnection) {
  LedgerInput in{.accepted = 10, .accounted = 10, .server_ops = 5002, .client_ops = 5000,
                 .concurrent_conns = 2};
  EXPECT_EQ(CheckLedger(in), "");
  EXPECT_EQ(LedgerFailures(in), 0u);
  in.server_ops = 5003;
  EXPECT_NE(CheckLedger(in), "");
}

TEST(LedgerTest, WrappedRequestCountFails) {
  // 66,000 rounds on one connection: a 16-bit round counter that wrapped
  // reports 66,000 - 65,536, and the same wrap widened to 32 bits reports
  // 2^32 - 65,536 more than the truth.
  LedgerInput in{.accepted = 1, .accounted = 1, .server_ops = 66'000 - 65'536,
                 .client_ops = 66'000, .concurrent_conns = 1};
  EXPECT_NE(CheckLedger(in), "");
  EXPECT_EQ(LedgerFailures(in), 65'536u);
  in.server_ops = 66'000 + (1ull << 32) - 65'536;
  EXPECT_NE(CheckLedger(in), "");
}

TEST(LedgerTest, ConservationMismatchFails) {
  LedgerInput in{.accepted = 10, .accounted = 9, .server_ops = 9, .client_ops = 9,
                 .concurrent_conns = 2};
  EXPECT_NE(CheckLedger(in).find("conservation"), std::string::npos);
  EXPECT_EQ(LedgerFailures(in), 1u);
}

TEST(PlanTest, RefusesFewerThanTwoCpus) {
  CpuPlan plan;
  std::string error;
  EXPECT_FALSE(PlanCpus({0}, &plan, &error));
  EXPECT_NE(error.find("at least 2"), std::string::npos);
  EXPECT_FALSE(PlanCpus({}, &plan, &error));
}

TEST(PlanTest, SplitsCpusWithoutOverlap) {
  CpuPlan plan;
  std::string error;
  ASSERT_TRUE(PlanCpus({0, 1, 2, 3}, &plan, &error));
  EXPECT_EQ(plan.reactor_cpus, (std::vector<int>{0, 1}));
  EXPECT_EQ(plan.gen_cpus, (std::vector<int>{2, 3}));
  ASSERT_TRUE(PlanCpus({0, 1, 2}, &plan, &error));
  EXPECT_EQ(plan.reactor_cpus, (std::vector<int>{0}));
  EXPECT_EQ(plan.gen_cpus, (std::vector<int>{1, 2}));
  // The runtime pins reactor i to CPU i, so CPU 0 must be usable.
  EXPECT_FALSE(PlanCpus({2, 3, 4, 5}, &plan, &error));
}

class SmokeTest : public ::testing::TestWithParam<Workload> {};

TEST_P(SmokeTest, ShortRunVerifiesEveryReply) {
  if (AllowedCpus().size() < 2) {
    GTEST_SKIP() << "needs two CPUs";
  }
  Options opt;
  opt.workload = GetParam();
  opt.seconds = 0.3;
  Result result;
  std::string error;
  ASSERT_TRUE(RunBenchmark(opt, &result, &error)) << error;
  EXPECT_TRUE(result.correct);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_GT(result.attempted, 0u);
  std::vector<std::string> names;
  for (const Metric& m : result.metrics) {
    names.push_back(m.name);
    EXPECT_GT(m.value, 0) << m.name;
  }
  EXPECT_EQ(names, (std::vector<std::string>{"ops_per_s_vs_ref", "latency_p50_vs_ref",
                                             "server_cpu_vs_ref", "setup_s", "peak_rss_mib"}));
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, SmokeTest,
                         ::testing::Values(Workload::kAcceptChurn, Workload::kEchoKeepalive,
                                           Workload::kWebStatic),
                         [](const ::testing::TestParamInfo<Workload>& p) {
                           return std::string(WorkloadName(p.param));
                         });

TEST(SmokeTest, TracedRunReportsLayerMetrics) {
  if (AllowedCpus().size() < 2) {
    GTEST_SKIP() << "needs two CPUs";
  }
  Options opt;
  opt.workload = Workload::kWebStatic;
  opt.seconds = 0.3;
  opt.trace = true;
  Result result;
  std::string error;
  ASSERT_TRUE(RunBenchmark(opt, &result, &error)) << error;
  EXPECT_TRUE(result.correct);
  auto find = [&](const std::string& name) {
    return std::find_if(result.metrics.begin(), result.metrics.end(),
                        [&](const Metric& m) { return m.name == name; });
  };
  for (const char* name : {"trace.overhead_pct", "rt.reactor_reads_per_op",
                           "rt.reactor_cpu_in_ref_phases_pct", "time.timeouts",
                           "balance.serve_probe_ns", "svc.static_round_ns", "obs.totals_us"}) {
    EXPECT_NE(find(name), result.metrics.end()) << name;
  }
  EXPECT_EQ(find("time.timeouts")->value, 0);
  EXPECT_GT(find("svc.static_round_ns")->value, 0);
}

}  // namespace
}  // namespace rtbench
