// Paper-level integration tests: the headline effects must hold on scaled-
// down configurations that run fast enough for CI.

#include "src/core/experiment.h"

#include <gtest/gtest.h>

#include "src/core/reporter.h"

namespace affinity {
namespace {

ExperimentConfig MidConfig(AcceptVariant variant, int cores = 12) {
  ExperimentConfig config;
  config.kernel.machine = Amd48();
  config.kernel.num_cores = cores;
  config.kernel.listen.variant = variant;
  config.server = ServerKind::kApacheWorker;
  // One worker holds one connection for its full lifetime: provision above
  // the concurrent-connection count or the pool becomes the bottleneck.
  config.worker.workers_per_process = 1024;
  config.sessions_per_core = 500;
  config.warmup = MsToCycles(600);
  config.measure = MsToCycles(300);
  return config;
}

TEST(ExperimentTest, VariantsAgreeAtOneCore) {
  // With one core there is nothing to share or steal: all three listen-socket
  // implementations perform the same (paper Figures 2/3, leftmost points).
  double stock = Experiment(MidConfig(AcceptVariant::kStock, 1)).Run().requests_per_sec_per_core;
  double fine = Experiment(MidConfig(AcceptVariant::kFine, 1)).Run().requests_per_sec_per_core;
  double affinity =
      Experiment(MidConfig(AcceptVariant::kAffinity, 1)).Run().requests_per_sec_per_core;
  EXPECT_NEAR(fine / stock, 1.0, 0.05);
  EXPECT_NEAR(affinity / stock, 1.0, 0.05);
}

TEST(ExperimentTest, HeadlineOrderingAtTwelveCores) {
  // Affinity > Fine > Stock (paper Figure 2 shape).
  ExperimentResult stock =
      MeasureSaturated(MidConfig(AcceptVariant::kStock, 12), DefaultSessionLadder(AcceptVariant::kStock));
  ExperimentResult fine = Experiment(MidConfig(AcceptVariant::kFine, 12)).Run();
  ExperimentResult affinity = Experiment(MidConfig(AcceptVariant::kAffinity, 12)).Run();

  // At 12 cores the stock lock is just past its saturation knee (the full
  // 2.8x collapse of the paper appears at 48 cores; see bench_fig2).
  EXPECT_GT(fine.requests_per_sec_per_core, 1.3 * stock.requests_per_sec_per_core);
  EXPECT_GT(affinity.requests_per_sec_per_core, 1.05 * fine.requests_per_sec_per_core);
}

TEST(ExperimentTest, AffinityAcceptsLocallyFineDoesNot) {
  ExperimentResult fine = Experiment(MidConfig(AcceptVariant::kFine)).Run();
  ExperimentResult affinity = Experiment(MidConfig(AcceptVariant::kAffinity)).Run();
  // Fine round-robins: local accepts are ~1/12 of the total. Affinity: almost
  // all local.
  EXPECT_GT(fine.listen_stats.accepted_remote, fine.listen_stats.accepted_local);
  EXPECT_GT(affinity.listen_stats.accepted_local,
            5 * std::max<uint64_t>(1, affinity.listen_stats.accepted_remote));
}

TEST(ExperimentTest, FineHasRemoteFreesAffinityAlmostNone) {
  // Section 2.2's remote-deallocation problem appears under Fine only.
  ExperimentResult fine = Experiment(MidConfig(AcceptVariant::kFine)).Run();
  ExperimentResult affinity = Experiment(MidConfig(AcceptVariant::kAffinity)).Run();
  // Affinity still has some remote frees (stolen connections, migrated flow
  // groups); Fine's round-robin makes nearly every free remote.
  EXPECT_GT(fine.slab_stats.remote_frees, 3 * (affinity.slab_stats.remote_frees + 1));
}

TEST(ExperimentTest, FineBurnsMoreNetworkStackCyclesPerRequest) {
  // The Table 3 aggregate: Fine's network-stack cycles per request exceed
  // Affinity's (paper: by ~30-40%).
  ExperimentResult fine = Experiment(MidConfig(AcceptVariant::kFine)).Run();
  ExperimentResult affinity = Experiment(MidConfig(AcceptVariant::kAffinity)).Run();
  double fine_stack = static_cast<double>(fine.counters.NetworkStackCycles()) /
                      static_cast<double>(fine.requests);
  double affinity_stack = static_cast<double>(affinity.counters.NetworkStackCycles()) /
                          static_cast<double>(affinity.requests);
  EXPECT_GT(fine_stack, 1.10 * affinity_stack);
}

TEST(ExperimentTest, FineDoublesL2MissesInSoftirq) {
  ExperimentResult fine = Experiment(MidConfig(AcceptVariant::kFine)).Run();
  ExperimentResult affinity = Experiment(MidConfig(AcceptVariant::kAffinity)).Run();
  double fine_misses = static_cast<double>(
                           fine.counters.entry(KernelEntry::kSoftirqNetRx).l2_misses) /
                       static_cast<double>(fine.requests);
  double affinity_misses =
      static_cast<double>(affinity.counters.entry(KernelEntry::kSoftirqNetRx).l2_misses) /
      static_cast<double>(affinity.requests);
  EXPECT_GT(fine_misses, affinity_misses);
}

TEST(ExperimentTest, StockSpendsMostTimeWaitingForTheLock) {
  // Table 2: "Close to 70% of the time is spent waiting for another core."
  ExperimentConfig config = MidConfig(AcceptVariant::kStock, 12);
  config.kernel.lock_stat = true;
  config.sessions_per_core = 120;
  ExperimentResult result = Experiment(config).Run();
  double waiting =
      result.us_lock_spin_per_request + result.us_lock_mutex_per_request +
      result.us_idle_per_request;
  EXPECT_GT(waiting / result.us_total_per_request, 0.5);
}

TEST(ExperimentTest, LockStatOverheadLowersThroughput) {
  ExperimentConfig with = MidConfig(AcceptVariant::kStock, 8);
  with.sessions_per_core = 120;
  ExperimentConfig without = with;
  with.kernel.lock_stat = true;
  double t_with = Experiment(with).Run().requests_per_sec_per_core;
  double t_without = Experiment(without).Run().requests_per_sec_per_core;
  EXPECT_LT(t_with, t_without);
}

TEST(ExperimentTest, ProfilingProducesSharingReports) {
  ExperimentConfig config = MidConfig(AcceptVariant::kFine, 12);
  config.kernel.profiling = true;
  config.kernel.profile_sample = 4;
  config.files.num_files = 500;  // so individual files get multi-core hits
  ExperimentResult result = Experiment(config).Run();
  ASSERT_FALSE(result.sharing.empty());
  bool found_sock = false;
  bool found_req = false;
  for (const TypeSharingReport& r : result.sharing) {
    if (r.type_name == "tcp_sock") {
      // Paper Table 4 (Fine): 85% of lines, 22% of bytes shared RW.
      found_sock = true;
      EXPECT_GT(r.pct_lines_shared, 40.0);
      EXPECT_GT(r.pct_bytes_shared_rw, 10.0);
    }
    if (r.type_name == "tcp_request_sock") {
      // Paper Table 4 (Fine): 100% of the request sock's lines shared --
      // written at SYN/ACK time on the softirq core, read by accept().
      found_req = true;
      EXPECT_GT(r.pct_lines_shared, 50.0);
    }
  }
  EXPECT_TRUE(found_sock);
  EXPECT_TRUE(found_req);
  EXPECT_GT(result.shared_access_latency.count(), 0u);
}

TEST(ExperimentTest, AffinitySharingIsResidualOnly) {
  ExperimentConfig config = MidConfig(AcceptVariant::kAffinity, 12);
  config.kernel.profiling = true;
  config.kernel.profile_sample = 4;
  config.files.num_files = 500;
  ExperimentResult result = Experiment(config).Run();
  for (const TypeSharingReport& r : result.sharing) {
    if (r.type_name == "tcp_sock") {
      // Paper Table 4: 12% of lines, 2% of bytes under Affinity-Accept
      // (ours includes connections moved by stealing, so slightly higher).
      EXPECT_LT(r.pct_lines_shared, 30.0);
      EXPECT_LT(r.pct_bytes_shared, 12.0);
    }
    if (r.type_name == "file") {
      // The globally refcounted file objects stay shared in both variants.
      EXPECT_GT(r.pct_lines_shared, 20.0);
    }
  }
}

TEST(ExperimentTest, MigrationMovesFlowGroupsUnderImbalance) {
  // Pin an artificial compute hog on half the cores and verify flow groups
  // migrate away (Section 6.5's mechanism, small scale).
  ExperimentConfig config = MidConfig(AcceptVariant::kAffinity, 4);
  config.sessions_per_core = 250;
  Experiment experiment(config);
  experiment.Build();
  // Hog cores 2 and 3.
  for (CoreId c = 2; c < 4; ++c) {
    Thread* hog = experiment.kernel().scheduler().Spawn(c, 1000 + c, true,
                                                        [](ExecCtx& ctx, Thread&) {
                                                          ctx.ChargeCycles(MsToCycles(1));
                                                        });
    experiment.kernel().scheduler().Start(hog);
  }
  experiment.RunFor(SecToCycles(1.0));
  // Steals happened from the hogged cores and groups moved off their rings.
  EXPECT_GT(experiment.kernel().listen().balance().total_steals(), 0u);
  int groups_on_hogged = 0;
  const SimNic& nic = experiment.kernel().nic();
  for (uint32_t g = 0; g < nic.config().num_flow_groups; ++g) {
    int ring = experiment.kernel().nic().RingOfFlowGroup(g);
    if (ring >= 2) {
      ++groups_on_hogged;
    }
  }
  EXPECT_LT(groups_on_hogged, static_cast<int>(nic.config().num_flow_groups / 2));
}

TEST(ExperimentTest, TwentyPolicyUpdatesFdirFromSendPath) {
  ExperimentConfig config = MidConfig(AcceptVariant::kStock, 4);
  config.kernel.twenty_policy = true;
  config.sessions_per_core = 100;
  ExperimentResult result = Experiment(config).Run();
  EXPECT_GT(result.kernel_stats.fdir_updates, 0u);
}

TEST(ReporterTest, TableFormatsAligned) {
  TablePrinter table({"a", "bbbb"});
  table.AddRow({"1", "2"});
  table.AddRow({"333", "4"});
  table.Print();  // smoke: no crash; visual alignment checked by humans
  EXPECT_EQ(TablePrinter::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Int(42), "42");
}

}  // namespace
}  // namespace affinity
