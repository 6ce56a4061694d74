#include "speed.hpp"

#include <chrono>
#include <cmath>
#include <vector>

namespace perfbench {
namespace {

constexpr int kCells = 64;
constexpr int kSteps = 1500;

/// Keeps the burst's result observable so it cannot be optimized away.
volatile double g_sink = 0;

}  // namespace

double reference_burst_seconds() {
  const auto start = std::chrono::steady_clock::now();
  const double ambient = 300.0 + g_sink * 0.0;
  std::vector<double> temp(kCells, ambient);
  std::vector<double> power(kCells);
  for (int c = 0; c < kCells; ++c) {
    power[c] = 1e-3 * (c % 7);
  }
  for (int step = 0; step < kSteps; ++step) {
    std::vector<double> next(kCells);
    next[0] = temp[0];
    next[kCells - 1] = temp[kCells - 1];
    for (int c = 1; c + 1 < kCells; ++c) {
      next[c] = temp[c] +
                1e-3 * (temp[c - 1] + temp[c + 1] - 2 * temp[c]) +
                power[c] * std::exp(-1000.0 / temp[c]);
    }
    temp.swap(next);
  }
  g_sink = temp[kCells / 2];
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace perfbench
