#include "stats.hpp"

#include <algorithm>

namespace perfbench {
namespace {

/// 1-based nearest rank of percentile `pct` among `n` samples.
std::size_t nearest_rank(std::size_t n, int pct) {
  const std::size_t rank = (static_cast<std::size_t>(pct) * n + 99) / 100;
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double median(std::vector<double> samples) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

int tail_percentile(std::size_t n) {
  for (int pct = 99; pct >= 1; --pct) {
    if (n >= kTailBeyond + nearest_rank(n, pct)) {
      return pct;
    }
  }
  return 100;
}

Tail tail(std::vector<double> samples) {
  Tail t;
  t.samples = samples.size();
  if (samples.empty()) {
    return t;
  }
  t.pct = tail_percentile(samples.size());
  std::sort(samples.begin(), samples.end());
  t.value = samples[nearest_rank(samples.size(), t.pct) - 1];
  return t;
}

}  // namespace perfbench
