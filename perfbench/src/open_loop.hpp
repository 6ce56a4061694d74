// Open-loop request generation at a fixed rate.
//
// Request k of a sender is due at phase + k * period whether or not the
// previous one has been answered. A sender owns one connection, so it
// can only send request k once request k-1 is back; when the system
// stalls, later requests go out late, and timing each request from its
// due time (not from when it was sent) charges that wait to every
// request behind the stall instead of hiding it.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace perfbench {

struct RequestTiming {
  /// Seconds on the caller's clock.
  double due_s = 0;
  double sent_s = 0;
  double done_s = 0;

  /// What the requester experienced: due time to response.
  double latency_s() const { return done_s - due_s; }
  /// How late the generator sent the request.
  double lag_s() const { return sent_s - due_s; }
};

struct OpenLoopClock {
  /// Current time in seconds.
  std::function<double()> now;
  /// Blocks until now() >= t (returns at once when t has passed).
  std::function<void(double)> wait_until;
};

/// Sends requests 0..count-1 of one sender. `send(k)` performs request k
/// synchronously (its outcome is the caller's to record). Sending stops early,
/// leaving the remaining requests unsent, once now() passes `deadline_s`
/// (a guard against a stalled system); their count is the shortfall
/// between `count` and the returned size.
std::vector<RequestTiming> run_open_loop(
    std::size_t count, double period_s, double phase_s, double deadline_s,
    const OpenLoopClock& clock, const std::function<void(std::size_t)>& send);

}  // namespace perfbench
