// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark around its calls into the
// compiler's public functions; nothing inside the library is
// instrumented. Each span carries the metric key it feeds as its name,
// a start and end on one steady clock, its parent, and the function or
// request it belongs to. Spans stay in memory until the run ends and
// are then written as Chrome trace-event JSON (chrome://tracing,
// ui.perfetto.dev).
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr int kNoParent = -1;

struct Span {
  std::string name;
  /// Microseconds since the tracer was created.
  double start_us = 0;
  double end_us = 0;
  int parent = kNoParent;
  /// Function or request the span belongs to.
  std::string id;
  /// Recording thread, for the trace viewer's lanes.
  int lane = 0;

  double duration_us() const { return end_us - start_us; }
};

class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  /// Microseconds from construction to `t`.
  double us(std::chrono::steady_clock::time_point t) const;

  /// Records a finished span; returns its index (a parent handle).
  /// Safe to call from several threads.
  int add(std::string name, double start_us, double end_us, int parent,
          std::string id, int lane = 0);

  /// Span duration minus the part of its interval that its children
  /// cover (overlapping children are counted once).
  double self_us(std::size_t index) const;

  /// Total duration and total self time per span name.
  struct NameTotals {
    double total_us = 0;
    double self_us = 0;
    std::size_t count = 0;
  };
  std::map<std::string, NameTotals> totals_by_name() const;

  /// The spans as a Chrome trace-event JSON document ("X" events).
  std::string chrome_json() const;

 private:
  double self_us_locked(std::size_t index) const;

  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
