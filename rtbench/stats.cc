#include "rtbench/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace rtbench {

double Median(std::vector<double> samples) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

LatencyHist::LatencyHist() : buckets_(static_cast<size_t>(kOctaves + 1) * kSub, 0) {}

int LatencyHist::BucketOf(uint64_t v) {
  if (v < static_cast<uint64_t>(kSub)) {
    return static_cast<int>(v);
  }
  int msb = 63 - std::countl_zero(v);
  int octave = msb - kSubBits + 1;
  if (octave > kOctaves) {
    return (kOctaves + 1) * kSub - 1;
  }
  return octave * kSub + static_cast<int>((v >> (msb - kSubBits)) - kSub);
}

double LatencyHist::BucketLow(int b) {
  int octave = b / kSub;
  int sub = b % kSub;
  if (octave == 0) {
    return sub;
  }
  return std::ldexp(static_cast<double>(kSub + sub), octave - 1);
}

double LatencyHist::BucketWidth(int b) {
  int octave = b / kSub;
  return octave == 0 ? 1.0 : std::ldexp(1.0, octave - 1);
}

void LatencyHist::Add(int64_t ns) {
  ++buckets_[static_cast<size_t>(BucketOf(ns < 0 ? 0 : static_cast<uint64_t>(ns)))];
  ++count_;
}

void LatencyHist::Merge(const LatencyHist& other) {
  for (size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

double LatencyHist::Percentile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  double rank = std::max(1.0, std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(count_)));
  uint64_t before = 0;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    uint64_t c = buckets_[b];
    if (c == 0) {
      continue;
    }
    if (static_cast<double>(before + c) >= rank) {
      int bi = static_cast<int>(b);
      if (BucketWidth(bi) == 1.0) {
        return BucketLow(bi);  // exact bucket
      }
      double within = (rank - static_cast<double>(before) - 0.5) / static_cast<double>(c);
      return BucketLow(bi) + BucketWidth(bi) * within;
    }
    before += c;
  }
  return BucketLow(static_cast<int>(buckets_.size()) - 1);
}

}  // namespace rtbench
