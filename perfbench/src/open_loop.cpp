#include "open_loop.hpp"

namespace perfbench {

std::vector<RequestTiming> run_open_loop(
    std::size_t count, double period_s, double phase_s, double deadline_s,
    const OpenLoopClock& clock, const std::function<void(std::size_t)>& send) {
  std::vector<RequestTiming> timings;
  timings.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    if (clock.now() > deadline_s) {
      break;
    }
    RequestTiming t;
    t.due_s = phase_s + static_cast<double>(k) * period_s;
    clock.wait_until(t.due_s);
    t.sent_s = clock.now();
    send(k);
    t.done_s = clock.now();
    timings.push_back(t);
  }
  return timings;
}

}  // namespace perfbench
