// StatsSampler: a background thread that snapshots a MetricsRegistry every
// N ms (the runtime analogue of the paper's 100 ms balancer tick) and turns
// consecutive snapshots into per-interval rates -- conns/sec per core,
// steals/sec -- so a bench or an operator can watch the balancer work while
// the run is live instead of reading totals after Stop().

#ifndef AFFINITY_SRC_OBS_STATS_SAMPLER_H_
#define AFFINITY_SRC_OBS_STATS_SAMPLER_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/snapshot.h"

namespace affinity {
namespace obs {

// Per-counter rate over one interval: delta / interval seconds.
struct RateSeries {
  std::string name;
  std::vector<double> per_core;
  double total = 0.0;
};

struct IntervalSample {
  uint64_t t_ms = 0;        // interval end, relative to Start()
  double interval_s = 0.0;  // measured wall duration of the interval
  std::vector<RateSeries> rates;  // one entry per counter in the registry
  MetricsSnapshot snapshot;       // cumulative state at interval end

  const RateSeries* Find(const std::string& name) const {
    for (const RateSeries& r : rates) {
      if (r.name == name) {
        return &r;
      }
    }
    return nullptr;
  }
};

class StatsSampler {
 public:
  // The registry must outlive the sampler. `interval_ms` >= 1.
  StatsSampler(const MetricsRegistry* registry, int interval_ms);
  ~StatsSampler();

  StatsSampler(const StatsSampler&) = delete;
  StatsSampler& operator=(const StatsSampler&) = delete;

  void Start();
  // Takes a final partial sample (if at least half an interval elapsed),
  // then joins the thread. Idempotent.
  void Stop();

  int interval_ms() const { return interval_ms_; }

  // Copy of the samples recorded so far; callable at any time.
  std::vector<IntervalSample> Samples() const;

 private:
  void RunThread();

  const MetricsRegistry* registry_;
  int interval_ms_;
  std::thread thread_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool started_ = false;
  std::vector<IntervalSample> samples_;
};

}  // namespace obs
}  // namespace affinity

#endif  // AFFINITY_SRC_OBS_STATS_SAMPLER_H_
