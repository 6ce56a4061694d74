// Host-speed calibration.
//
// On a shared host the CPU capacity a process gets drifts by a quarter
// over minutes, and the compiler's wall times drift with it; no statistic
// over one run's samples can cancel a slowdown that lasts the whole run.
// The benchmark therefore times a fixed reference burst, written here and
// independent of the library, at many points of every timed phase, and
// reports each time scaled by how fast the host ran the reference:
//
//   reported = measured * kNominalBurstSeconds / mean(burst seconds)
//
// A change to the library cannot move the reference, so it still moves
// every reported time; interference that slows both cancels out.
#pragma once

#include <cstddef>

namespace perfbench {

/// One reference burst takes about this long on an uncontended core of
/// the host the bounds were set on; it only sets the scale.
inline constexpr double kNominalBurstSeconds = 1e-3;

/// Runs one reference burst (transient steps of a 64-cell RC line with
/// temperature-dependent leakage, a fresh vector per step: the DFA's kind
/// of work) and returns its wall seconds.
double reference_burst_seconds();

class SpeedProbe {
 public:
  void add(double burst_seconds) {
    total_s_ += burst_seconds;
    ++bursts_;
  }
  void sample() { add(reference_burst_seconds()); }
  void merge(const SpeedProbe& other) {
    total_s_ += other.total_s_;
    bursts_ += other.bursts_;
  }

  std::size_t bursts() const { return bursts_; }
  /// Multiplier from measured to reported times (1 without samples).
  double factor() const {
    return bursts_ == 0 || total_s_ <= 0
               ? 1.0
               : kNominalBurstSeconds * static_cast<double>(bursts_) /
                     total_s_;
  }

 private:
  double total_s_ = 0;
  std::size_t bursts_ = 0;
};

}  // namespace perfbench
