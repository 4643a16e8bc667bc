// Functional tests for src/obs/: histogram edge cases, the registry and
// snapshot model, TraceRing wraparound/ordering, both exporters, and the
// StatsSampler.

#include <gtest/gtest.h>

#include <limits>
#include <thread>

#include "src/obs/export.h"
#include "src/obs/json_writer.h"
#include "src/obs/metrics.h"
#include "src/obs/stats_sampler.h"
#include "src/obs/trace_ring.h"
#include "src/sim/stats.h"

namespace affinity {
namespace obs {
namespace {

// --- Histogram edge cases (satellite: empty percentile, single sample,
// top-octave value, merge-after-reset) ---

TEST(HistogramEdgeTest, EmptyPercentileIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0u);
  EXPECT_EQ(h.Percentile(0.0), 0u);
  EXPECT_EQ(h.Percentile(1.0), 0u);
  EXPECT_TRUE(h.Cdf().empty());
  EXPECT_TRUE(h.CumulativeCounts().empty());
}

TEST(HistogramEdgeTest, SingleSample) {
  Histogram h;
  h.Add(42);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 42u);
  EXPECT_EQ(h.max(), 42u);
  EXPECT_EQ(h.Percentile(0.0), 42u);
  EXPECT_EQ(h.Percentile(0.5), 42u);
  EXPECT_EQ(h.Percentile(1.0), 42u);
  auto cum = h.CumulativeCounts();
  ASSERT_EQ(cum.size(), 1u);
  EXPECT_EQ(cum[0].cumulative, 1u);
}

TEST(HistogramEdgeTest, TopOctaveValueClampsToLastBucket) {
  Histogram h;
  uint64_t huge = std::numeric_limits<uint64_t>::max();
  h.Add(huge);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max(), huge);
  // The representative value of the clamp bucket is below the sample but
  // must still be a top-of-range value, not zero or a small bucket.
  uint64_t p100 = h.Percentile(1.0);
  EXPECT_GT(p100, uint64_t{1} << 40);
  EXPECT_EQ(Histogram::BucketFor(huge), Histogram::kNumBuckets - 1);
  EXPECT_EQ(p100, Histogram::BucketValue(Histogram::kNumBuckets - 1));
}

TEST(HistogramEdgeTest, MergeAfterReset) {
  Histogram a;
  a.Add(10);
  a.Add(1000);
  a.Reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.min(), 0u);
  EXPECT_EQ(a.max(), 0u);

  Histogram b;
  b.Add(7);
  b.Add(300);
  a.Merge(b);  // merging into a reset histogram must not resurrect old state
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 7u);
  EXPECT_EQ(a.max(), 300u);
  EXPECT_EQ(a.Median(), b.Median());

  // And merging an empty histogram is a no-op.
  Histogram empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 7u);
}

TEST(HistogramEdgeTest, RestoreRawRoundTrips) {
  Histogram src;
  for (uint64_t v : {0u, 1u, 31u, 32u, 1000u, 123456u}) {
    src.Add(v);
  }
  AtomicHistogram atomic;
  for (uint64_t v : {0u, 1u, 31u, 32u, 1000u, 123456u}) {
    atomic.Add(v);
  }
  Histogram restored = atomic.Snapshot();
  EXPECT_EQ(restored.count(), src.count());
  EXPECT_EQ(restored.min(), src.min());
  EXPECT_EQ(restored.max(), src.max());
  EXPECT_DOUBLE_EQ(restored.mean(), src.mean());
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_EQ(restored.Percentile(q), src.Percentile(q)) << q;
  }
}

TEST(AtomicHistogramTest, ResetClears) {
  AtomicHistogram h;
  h.Add(5);
  h.Add(500);
  h.Reset();
  Histogram snap = h.Snapshot();
  EXPECT_EQ(snap.count(), 0u);
  EXPECT_EQ(snap.Percentile(0.5), 0u);
}

// --- MetricsRegistry ---

TEST(MetricsRegistryTest, CountersGaugesAndSnapshot) {
  MetricsRegistry reg(3);
  auto c = reg.RegisterCounter("conns", "connections");
  auto g = reg.RegisterGauge("qlen", "queue length");
  auto h = reg.RegisterHistogram("wait", "wait ns");

  reg.Add(c, 0, 5);
  reg.Add(c, 1);
  reg.GaugeSet(g, 2, 7);
  reg.GaugeSet(g, 2, 3);  // gauges overwrite
  reg.Observe(h, 1, 100);
  reg.Observe(h, 2, 200);

  EXPECT_EQ(reg.Value(c, 0), 5u);
  EXPECT_EQ(reg.Value(c, 1), 1u);
  EXPECT_EQ(reg.Total(c), 6u);
  EXPECT_EQ(reg.Value(g, 2), 3u);
  EXPECT_EQ(reg.HistogramMerged(h).count(), 2u);
  EXPECT_EQ(reg.HistogramSnapshot(h, 1).count(), 1u);

  MetricsSnapshot snap = reg.Snapshot();
  const SeriesSnap* conns = snap.Find("conns");
  ASSERT_NE(conns, nullptr);
  EXPECT_EQ(conns->kind, MetricKind::kCounter);
  ASSERT_EQ(conns->values.size(), 3u);
  EXPECT_EQ(conns->values[0], 5u);
  EXPECT_EQ(conns->total, 6u);
  const SeriesSnap* qlen = snap.Find("qlen");
  ASSERT_NE(qlen, nullptr);
  EXPECT_EQ(qlen->kind, MetricKind::kGauge);
  EXPECT_EQ(qlen->values[2], 3u);
  const HistSnap* wait = snap.FindHistogram("wait");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->Merged().count(), 2u);
  EXPECT_EQ(snap.Find("nope"), nullptr);
}

// --- TraceRing ---

TEST(TraceRingTest, WraparoundKeepsNewestAndGlobalOrder) {
  TraceRing ring(2, 4);
  for (int i = 0; i < 10; ++i) {
    TraceEvent ev;
    ev.type = TraceEventType::kSteal;
    ev.src = static_cast<int16_t>(i);  // payload marker
    ring.Record(i % 2, ev);
  }
  EXPECT_EQ(ring.recorded(), 10u);
  EXPECT_EQ(ring.dropped(), 2u);  // 5 writes per ring, capacity 4

  std::vector<TraceEvent> events = ring.Dump();
  ASSERT_EQ(events.size(), 8u);
  // Global seq order, strictly increasing.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GT(events[i].seq, events[i - 1].seq);
    EXPECT_GE(events[i].t_ns, events[i - 1].t_ns);
  }
  // The two oldest records (seq 0 and 1) were overwritten.
  EXPECT_EQ(events.front().seq, 2u);
  EXPECT_EQ(events.back().seq, 9u);
  // Payloads survive: markers 2..9 in order.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].src, static_cast<int16_t>(i + 2));
  }
}

TEST(TraceRingTest, OutOfRangeCoreIsIgnored) {
  TraceRing ring(1, 2);
  ring.Record(-1, TraceEvent{});
  ring.Record(5, TraceEvent{});
  EXPECT_EQ(ring.recorded(), 0u);
  EXPECT_TRUE(ring.Dump().empty());
}

TEST(TraceRingTest, DumpToStringNamesEventTypes) {
  TraceRing ring(1, 8);
  TraceEvent steal;
  steal.type = TraceEventType::kSteal;
  steal.src = 1;
  steal.dst = 0;
  ring.Record(0, steal);
  TraceEvent busy;
  busy.type = TraceEventType::kBusyOn;
  busy.ewma = 3.5;
  ring.Record(0, busy);
  std::string dump = ring.DumpToString();
  EXPECT_NE(dump.find("steal 1 -> 0"), std::string::npos) << dump;
  EXPECT_NE(dump.find("busy_on"), std::string::npos) << dump;
  EXPECT_NE(dump.find("ewma=3.50"), std::string::npos) << dump;
}

// --- exporters ---

TEST(ExportTest, PrometheusTextFormat) {
  MetricsRegistry reg(2);
  auto c = reg.RegisterCounter("served", "served connections");
  auto g = reg.RegisterGauge("qlen", "queue length");
  auto h = reg.RegisterHistogram("wait_ns", "queue wait");
  reg.Add(c, 0, 3);
  reg.Add(c, 1, 4);
  reg.GaugeSet(g, 0, 9);
  reg.Observe(h, 0, 100);

  std::string text = ToPrometheusText(reg.Snapshot());
  EXPECT_NE(text.find("# TYPE affinity_served_total counter"), std::string::npos) << text;
  EXPECT_NE(text.find("affinity_served_total{core=\"0\"} 3"), std::string::npos) << text;
  EXPECT_NE(text.find("affinity_served_total{core=\"1\"} 4"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE affinity_qlen gauge"), std::string::npos) << text;
  EXPECT_NE(text.find("affinity_qlen{core=\"0\"} 9"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE affinity_wait_ns histogram"), std::string::npos) << text;
  EXPECT_NE(text.find("affinity_wait_ns_bucket{core=\"0\",le=\"+Inf\"} 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("affinity_wait_ns_count{core=\"0\"} 1"), std::string::npos) << text;
}

TEST(ExportTest, PrometheusLabelValuesAreEscaped) {
  // A label value carrying a backslash, a double quote, and a newline must
  // render as \\, \", and \n -- a raw newline or quote would corrupt every
  // line after it in the scrape.
  MetricsSnapshot snap;
  SeriesSnap s;
  s.name = "listener_conns";
  s.kind = MetricKind::kCounter;
  s.label_key = "path";
  s.label_values = {"a\\b\"c\nd"};
  s.values = {7};
  s.total = 7;
  snap.series.push_back(s);
  std::string text = ToPrometheusText(snap);
  EXPECT_NE(text.find("affinity_listener_conns_total{path=\"a\\\\b\\\"c\\nd\"} 7"),
            std::string::npos)
      << text;
  // Every rendered line must still be one line: the raw newline from the
  // label value must not survive into the body.
  EXPECT_EQ(text.find("c\nd"), std::string::npos) << text;

  // The histogram path escapes through the same helper (including the
  // extra "le" label position).
  MetricsSnapshot hsnap;
  HistSnap h;
  h.name = "wait_ns";
  h.label_key = "series";
  h.label_values = {"odd\"series"};
  Histogram hist;
  hist.Add(100);
  h.per_label = {hist};
  hsnap.histograms.push_back(h);
  std::string htext = ToPrometheusText(hsnap);
  EXPECT_NE(htext.find("affinity_wait_ns_count{series=\"odd\\\"series\"} 1"), std::string::npos)
      << htext;
}

TEST(ExportTest, JsonIsWellFormedAndCarriesValues) {
  MetricsRegistry reg(2);
  auto c = reg.RegisterCounter("served", "served");
  auto h = reg.RegisterHistogram("wait_ns", "wait");
  reg.Add(c, 0, 3);
  reg.Observe(h, 1, 1000);

  std::string json = ToJson(reg.Snapshot());
  // Structure markers (a real parser lives on the python side of the bench).
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"name\":\"served\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"kind\":\"counter\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"total\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p50\":"), std::string::npos) << json;
}

TEST(JsonWriterTest, NestedStructuresAndEscaping) {
  JsonWriter w;
  w.BeginObject();
  w.Key("a").Int(1);
  w.Key("s").String("he said \"hi\"\n");
  w.Key("arr").BeginArray().Int(1).Int(2).BeginObject().Key("x").Bool(true).EndObject().EndArray();
  w.Key("raw").Raw("[3,4]");
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"a\":1,\"s\":\"he said \\\"hi\\\"\\n\",\"arr\":[1,2,{\"x\":true}],\"raw\":[3,4]}");
}

// --- StatsSampler ---

TEST(StatsSamplerTest, RecordsIntervalRates) {
  MetricsRegistry reg(2);
  auto c = reg.RegisterCounter("conns", "");
  StatsSampler sampler(&reg, /*interval_ms=*/10);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load()) {
      reg.Add(c, 0);
      reg.Add(c, 1, 2);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  sampler.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  sampler.Stop();
  stop.store(true);
  writer.join();

  std::vector<IntervalSample> samples = sampler.Samples();
  ASSERT_GE(samples.size(), 2u);
  uint64_t prev_t = 0;
  for (const IntervalSample& s : samples) {
    EXPECT_GE(s.t_ms, prev_t);
    prev_t = s.t_ms;
    EXPECT_GT(s.interval_s, 0.0);
    const RateSeries* r = s.Find("conns");
    ASSERT_NE(r, nullptr);
    ASSERT_EQ(r->per_core.size(), 2u);
    // Core 1 is bumped at twice core 0's rate.
    EXPECT_GE(r->per_core[1], r->per_core[0]);
    EXPECT_DOUBLE_EQ(r->total, r->per_core[0] + r->per_core[1]);
  }
  // Cumulative snapshot at the last interval matches the registry shape.
  const SeriesSnap* snap = samples.back().snapshot.Find("conns");
  ASSERT_NE(snap, nullptr);
  EXPECT_GT(snap->total, 0u);
}

TEST(StatsSamplerTest, StopBeforeStartAndDoubleStopAreSafe) {
  MetricsRegistry reg(1);
  reg.RegisterCounter("c", "");
  StatsSampler sampler(&reg, 10);
  sampler.Stop();  // never started
  sampler.Start();
  sampler.Stop();
  sampler.Stop();  // idempotent
  SUCCEED();
}

}  // namespace
}  // namespace obs
}  // namespace affinity
