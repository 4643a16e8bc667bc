// The runtime's metric table (src/rt/rt_metrics.h), checked by expanding
// it: a metric added there is covered here with no edit. Each entry must
// reach both exporters under its exported name and help text, and its
// generated RtTotals field must read the registry's total for it.

#include "src/rt/rt_metrics.h"

#include <gtest/gtest.h>

#include <string>

#include "src/obs/export.h"
#include "src/rt/load_client.h"
#include "src/rt/runtime.h"

namespace affinity {
namespace rt {
namespace {

struct Exports {
  obs::MetricsSnapshot snapshot;
  std::string prometheus;
  std::string json;
};

void ExpectExported(const Exports& e, const std::string& name, const std::string& prom_name,
                    const std::string& help, const std::string& type) {
  EXPECT_NE(e.prometheus.find("# HELP " + prom_name + " " + help + "\n"), std::string::npos)
      << name;
  EXPECT_NE(e.prometheus.find("# TYPE " + prom_name + " " + type + "\n"), std::string::npos)
      << name;
  EXPECT_NE(e.json.find("\"name\":\"" + name + "\""), std::string::npos) << name;
}

void ExpectScalarTotal(const Exports& e, const std::string& name, uint64_t field) {
  const obs::SeriesSnap* series = e.snapshot.Find(name);
  ASSERT_NE(series, nullptr) << name;
  EXPECT_EQ(field, series->total) << name;
}

void ExpectHistogramTotal(const Exports& e, const std::string& name, const Histogram& field) {
  const obs::HistSnap* hist = e.snapshot.FindHistogram(name);
  ASSERT_NE(hist, nullptr) << name;
  Histogram merged = hist->Merged();
  EXPECT_EQ(field.count(), merged.count()) << name;
  EXPECT_EQ(field.min(), merged.min()) << name;
  EXPECT_EQ(field.max(), merged.max()) << name;
  EXPECT_EQ(field.Percentile(0.5), merged.Percentile(0.5)) << name;
}

TEST(RtMetricsTableTest, EveryTableMetricIsExportedAndTotaled) {
  RtConfig config;
  config.mode = RtMode::kAffinity;
  config.num_threads = 2;
  config.pin_threads = false;
  config.workload = svc::WorkloadKind::kEcho;
  ASSERT_FALSE(config.steer);  // the steering series must export anyway
  ASSERT_FALSE(config.hwprof);  // hwprof registers series of its own
  Runtime runtime(config);
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;
  LoadClientConfig client_config;
  client_config.port = runtime.port();
  client_config.num_threads = 2;
  client_config.max_conns = 40;
  client_config.workload = svc::WorkloadKind::kEcho;
  client_config.requests_per_conn = 4;
  LoadClient client(client_config);
  client.Start();
  client.WaitForMaxConns();
  runtime.Stop();

  Exports e;
  e.snapshot = runtime.metrics().Snapshot();
  e.prometheus = obs::ToPrometheusText(e.snapshot);
  e.json = obs::ToJson(e.snapshot);
  const RtTotals totals = runtime.Totals();
  EXPECT_GT(totals.accepted, 0u);
  EXPECT_GT(totals.requests, 0u);
  EXPECT_GT(totals.request_latency_ns.count(), 0u);

  size_t scalars = 0;
  size_t histograms = 0;
#define CHECK_COUNTER(field, name, help)                                 \
  ExpectExported(e, name, "affinity_" name "_total", help, "counter"); \
  ExpectScalarTotal(e, name, totals.field);                            \
  ++scalars;
#define CHECK_GAUGE(field, name, help)                        \
  ExpectExported(e, name, "affinity_" name, help, "gauge"); \
  ExpectScalarTotal(e, name, totals.field);                 \
  ++scalars;
#define CHECK_HISTOGRAM(field, name, help)                        \
  ExpectExported(e, name, "affinity_" name, help, "histogram"); \
  ExpectHistogramTotal(e, name, totals.field);                  \
  ++histograms;
  AFFINITY_RT_COUNTERS(CHECK_COUNTER)
  AFFINITY_RT_GAUGES(CHECK_GAUGE)
  AFFINITY_RT_HISTOGRAMS(CHECK_HISTOGRAM)
#undef CHECK_COUNTER
#undef CHECK_GAUGE
#undef CHECK_HISTOGRAM
  // The table is the whole list: the runtime registers nothing else.
  EXPECT_EQ(e.snapshot.series.size(), scalars);
  EXPECT_EQ(e.snapshot.histograms.size(), histograms);
}

}  // namespace
}  // namespace rt
}  // namespace affinity
