// Concurrency hammer for src/obs/ -- run under ThreadSanitizer in CI (the
// rt_tests target). N writer threads pound the registry and trace ring
// while a reader thread continuously snapshots and exports; afterwards the
// totals must be exact. Also the regression test for the RtTotals validity
// hazard: Runtime stats are read in a tight loop WHILE reactors serve real
// loopback connections.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/stats_sampler.h"
#include "src/obs/trace_ring.h"
#include "src/rt/load_client.h"
#include "src/rt/runtime.h"

namespace affinity {
namespace obs {
namespace {

TEST(ObsHammerTest, WritersVsSnapshotReader) {
  constexpr int kWriters = 4;
  constexpr int kItersPerWriter = 20000;

  MetricsRegistry reg(kWriters);
  auto counter = reg.RegisterCounter("hammer_count", "");
  auto gauge = reg.RegisterGauge("hammer_gauge", "");
  auto hist = reg.RegisterHistogram("hammer_hist", "");
  TraceRing ring(kWriters, /*capacity_per_core=*/64);

  std::atomic<bool> stop_reader{false};
  std::thread reader([&] {
    uint64_t last_total = 0;
    while (!stop_reader.load(std::memory_order_acquire)) {
      MetricsSnapshot snap = reg.Snapshot();
      const SeriesSnap* s = snap.Find("hammer_count");
      ASSERT_NE(s, nullptr);
      // Counters are monotone: a live snapshot never goes backwards.
      EXPECT_GE(s->total, last_total);
      last_total = s->total;
      // Histogram invariant must hold even mid-Add: bucket sum == count.
      const HistSnap* h = snap.FindHistogram("hammer_hist");
      ASSERT_NE(h, nullptr);
      Histogram merged = h->Merged();
      uint64_t cum = merged.CumulativeCounts().empty()
                         ? 0
                         : merged.CumulativeCounts().back().cumulative;
      EXPECT_EQ(cum, merged.count());
      // Exporters and the trace dump must be callable concurrently too.
      std::string text = ToPrometheusText(snap);
      EXPECT_NE(text.find("hammer_count_total"), std::string::npos);
      (void)ToJson(snap);
      (void)ring.Dump();
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kItersPerWriter; ++i) {
        reg.Add(counter, w);
        reg.GaugeSet(gauge, w, static_cast<uint64_t>(i));
        reg.Observe(hist, w, static_cast<uint64_t>(i % 1000) + 1);
        if (i % 16 == 0) {
          TraceEvent ev;
          ev.type = TraceEventType::kSteal;
          ev.src = static_cast<int16_t>(w);
          ev.dst = static_cast<int16_t>((w + 1) % kWriters);
          ring.Record(w, ev);
        }
      }
    });
  }
  for (std::thread& t : writers) {
    t.join();
  }
  stop_reader.store(true, std::memory_order_release);
  reader.join();

  // With the writers quiesced, every count is exact.
  constexpr uint64_t kExpected = uint64_t{kWriters} * kItersPerWriter;
  EXPECT_EQ(reg.Total(counter), kExpected);
  for (int w = 0; w < kWriters; ++w) {
    EXPECT_EQ(reg.Value(counter, w), uint64_t{kItersPerWriter});
    EXPECT_EQ(reg.Value(gauge, w), uint64_t{kItersPerWriter - 1});
    EXPECT_EQ(reg.HistogramSnapshot(hist, w).count(), uint64_t{kItersPerWriter});
  }
  Histogram merged = reg.HistogramMerged(hist);
  EXPECT_EQ(merged.count(), kExpected);
  EXPECT_EQ(merged.min(), 1u);
  EXPECT_EQ(merged.max(), 1000u);

  constexpr uint64_t kTraceWrites = uint64_t{kWriters} * ((kItersPerWriter + 15) / 16);
  EXPECT_EQ(ring.recorded(), kTraceWrites);
  EXPECT_EQ(ring.Dump().size(), size_t{kWriters} * 64);
  EXPECT_EQ(ring.dropped(), kTraceWrites - uint64_t{kWriters} * 64);
}

TEST(ObsHammerTest, SamplerRunsWhileWritersHammer) {
  MetricsRegistry reg(2);
  auto c = reg.RegisterCounter("c", "");
  auto h = reg.RegisterHistogram("h", "");
  StatsSampler sampler(&reg, /*interval_ms=*/5);

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      while (!stop.load(std::memory_order_acquire)) {
        reg.Add(c, w);
        reg.Observe(h, w, 100);
      }
    });
  }
  sampler.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  sampler.Stop();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : writers) {
    t.join();
  }

  std::vector<IntervalSample> samples = sampler.Samples();
  ASSERT_GE(samples.size(), 2u);
  bool saw_rate = false;
  for (const IntervalSample& s : samples) {
    const RateSeries* r = s.Find("c");
    ASSERT_NE(r, nullptr);
    if (r->total > 0) {
      saw_rate = true;
    }
  }
  EXPECT_TRUE(saw_rate);
}

// Satellite (a) regression: Totals() and metrics() snapshots/exports must
// be valid while reactor threads are serving real connections. Under TSan
// this fails loudly if any stat is a plain field mutated by a reactor.
TEST(ObsHammerTest, RuntimeStatsReadableWhileServing) {
  rt::RtConfig config;
  config.mode = rt::RtMode::kAffinity;
  config.num_threads = 4;
  config.pin_threads = false;  // CI runners may have fewer cores
  rt::Runtime runtime(config);
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;

  constexpr uint64_t kConns = 600;
  rt::LoadClientConfig client_config;
  client_config.port = runtime.port();
  client_config.num_threads = 4;
  client_config.max_conns = kConns;
  rt::LoadClient client(client_config);

  std::atomic<bool> stop_reader{false};
  std::thread reader([&] {
    uint64_t last_accepted = 0;
    while (!stop_reader.load(std::memory_order_acquire)) {
      rt::RtTotals totals = runtime.Totals();
      // Monotone counters: live totals never regress.
      EXPECT_GE(totals.accepted, last_accepted);
      last_accepted = totals.accepted;
      // A live snapshot reads each counter at a slightly different instant,
      // so cross-counter identities (accepted == served + ..., queue_wait
      // count == served) only hold at quiescence; what must hold live is
      // that every individual counter is monotone. The histogram's internal
      // invariant (bucket sum == count) holds even mid-Add.
      uint64_t cum = totals.queue_wait_ns.CumulativeCounts().empty()
                         ? 0
                         : totals.queue_wait_ns.CumulativeCounts().back().cumulative;
      EXPECT_EQ(cum, totals.queue_wait_ns.count());
      MetricsSnapshot snapshot = runtime.metrics().Snapshot();
      const SeriesSnap* accepted = snapshot.Find("rt_accepted");
      ASSERT_NE(accepted, nullptr);
      ASSERT_EQ(accepted->values.size(), static_cast<size_t>(config.num_threads));
      uint64_t per_core_accepted = 0;
      for (uint64_t v : accepted->values) {
        per_core_accepted += v;
      }
      // Same counter read twice: the later (fresh) read can only be larger.
      EXPECT_LE(per_core_accepted, runtime.Totals().accepted);
      std::string text = ToPrometheusText(snapshot);
      EXPECT_NE(text.find("affinity_rt_accepted_total"), std::string::npos);
      if (runtime.trace() != nullptr) {
        (void)runtime.trace()->Dump();
      }
    }
  });

  client.Start();
  client.WaitForMaxConns();
  stop_reader.store(true, std::memory_order_release);
  reader.join();
  runtime.Stop();

  EXPECT_GE(client.completed(), kConns);
  EXPECT_EQ(client.errors(), 0u);
  rt::RtTotals totals = runtime.Totals();
  EXPECT_EQ(totals.accepted, totals.accounted());
  EXPECT_EQ(totals.admission_shed, 0u);
}

}  // namespace
}  // namespace obs
}  // namespace affinity
