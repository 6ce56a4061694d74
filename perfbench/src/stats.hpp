// Order statistics for the benchmark's timing metrics.
//
// A timing is reported as its median and its tail: the highest whole
// percentile that still has at least ten samples beyond it, so a tail
// never rests on a handful of outliers. The workloads fix their sample
// counts by design (pool sizes, request rate x run length), which fixes
// the tail percentile each one reports.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle samples for even counts); 0 when empty.
double median(std::vector<double> samples);

/// Samples needed beyond the tail percentile.
inline constexpr std::size_t kTailBeyond = 10;

/// The highest whole percentile of `n` samples with at least kTailBeyond
/// samples beyond its nearest rank; 100 (the maximum) when n is too
/// small for any percentile to qualify.
int tail_percentile(std::size_t n);

struct Tail {
  int pct = 100;
  double value = 0;
  std::size_t samples = 0;
};

/// tail_percentile(samples.size()) applied to `samples`.
Tail tail(std::vector<double> samples);

}  // namespace perfbench
