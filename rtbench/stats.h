// Order statistics for the benchmark's reports.

#ifndef RTBENCH_STATS_H_
#define RTBENCH_STATS_H_

#include <cstdint>
#include <vector>

namespace rtbench {

// The conventional median (mean of the two middle samples for an even
// count); 0 for an empty sample.
double Median(std::vector<double> samples);

// Fixed-memory log-linear histogram of nanosecond latencies: 128 linear
// sub-buckets per power of two, so every bucket is within 0.8% of its
// values, and exact below 128 ns. Memory does not grow with the sample
// count, so a faster program does not report a larger peak RSS.
class LatencyHist {
 public:
  LatencyHist();

  void Add(int64_t ns);
  void Merge(const LatencyHist& other);
  uint64_t count() const { return count_; }

  // Nearest-rank percentile in ns: the bucket holding the smallest sample
  // with at least q*n samples at or below it, so a bimodal sample never
  // reports a latency between its modes. Within a bucket the value is
  // placed by the rank's position among the bucket's samples. 0 when
  // empty.
  double Percentile(double q) const;

 private:
  static constexpr int kSubBits = 7;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kOctaves = 40;  // values up to ~2^46 ns
  static int BucketOf(uint64_t v);
  static double BucketLow(int b);
  static double BucketWidth(int b);

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

}  // namespace rtbench

#endif  // RTBENCH_STATS_H_
