// The snapshot model every exporter renders from (src/obs/export.h).
//
// A snapshot is a point-in-time copy of a set of labeled series: counters
// and gauges carry one value per label (usually per core), histograms carry
// one plain Histogram per label. The runtime's MetricsRegistry produces
// this shape, so Prometheus text and JSON come from a single rendering
// path.

#ifndef AFFINITY_SRC_OBS_SNAPSHOT_H_
#define AFFINITY_SRC_OBS_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/stats.h"

namespace affinity {
namespace obs {

enum class MetricKind : uint8_t { kCounter, kGauge };

// One scalar series: `values[i]` belongs to label `label_values[i]`.
struct SeriesSnap {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  std::string label_key = "core";
  std::vector<std::string> label_values;
  std::vector<uint64_t> values;
  uint64_t total = 0;
};

// One histogram series, same labeling scheme.
struct HistSnap {
  std::string name;
  std::string help;
  std::string label_key = "core";
  std::vector<std::string> label_values;
  std::vector<Histogram> per_label;

  Histogram Merged() const {
    Histogram merged;
    for (const Histogram& h : per_label) {
      merged.Merge(h);
    }
    return merged;
  }
};

struct MetricsSnapshot {
  uint64_t mono_ns = 0;  // steady-clock capture time

  std::vector<SeriesSnap> series;
  std::vector<HistSnap> histograms;

  const SeriesSnap* Find(const std::string& name) const {
    for (const SeriesSnap& s : series) {
      if (s.name == name) {
        return &s;
      }
    }
    return nullptr;
  }

  const HistSnap* FindHistogram(const std::string& name) const {
    for (const HistSnap& h : histograms) {
      if (h.name == name) {
        return &h;
      }
    }
    return nullptr;
  }
};

}  // namespace obs
}  // namespace affinity

#endif  // AFFINITY_SRC_OBS_SNAPSHOT_H_
