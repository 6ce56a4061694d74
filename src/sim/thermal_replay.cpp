#include "sim/thermal_replay.hpp"

#include <algorithm>
#include <cmath>

#include "support/assert.hpp"

namespace tadfa::sim {

ReplayResult ThermalReplay::replay(const power::AccessTrace& trace,
                                   const ReplayConfig& config) const {
  TADFA_ASSERT(config.window_cycles > 0);
  TADFA_ASSERT(config.max_repeats >= 1);
  const machine::Floorplan& fp = grid_->floorplan();
  TADFA_ASSERT(trace.num_registers() == fp.num_registers());

  const double cycle_s = fp.config().tech.cycle_seconds();
  const std::uint64_t duration =
      std::max<std::uint64_t>(trace.duration_cycles(), 1);

  ReplayResult result;
  result.final_state = grid_->initial_state();
  result.peak_reg_temps.assign(fp.num_registers(),
                               grid_->substrate_temp());

  // The settle baseline is the starting state's peak: the substrate
  // temperature, as register_temps reports it for the initial state.
  const auto start_temps = grid_->register_temps(result.final_state);
  double prev_peak =
      *std::max_element(start_temps.begin(), start_temps.end());
  for (int rep = 0; rep < config.max_repeats; ++rep) {
    ++result.repeats_run;
    for (std::uint64_t begin = 0; begin < duration;
         begin += config.window_cycles) {
      const std::uint64_t end =
          std::min(begin + config.window_cycles, duration);
      const std::uint64_t window = end - begin;
      const auto counts = trace.window(begin, end);
      std::vector<double> p = model_->dynamic_power(counts, window);
      for (double watts : p) {
        result.dynamic_energy_j +=
            watts * static_cast<double>(window) * cycle_s;
      }
      if (config.include_leakage) {
        const auto temps = grid_->register_temps(result.final_state);
        const auto leak =
            model_->leakage_power(fp, temps, config.gated_banks);
        for (std::size_t r = 0; r < p.size(); ++r) {
          p[r] += leak[r];
          result.leakage_energy_j +=
              leak[r] * static_cast<double>(window) * cycle_s;
        }
      }
      grid_->step(result.final_state, p,
                  static_cast<double>(window) * cycle_s);

      const auto temps = grid_->register_temps(result.final_state);
      for (std::size_t r = 0; r < temps.size(); ++r) {
        result.peak_reg_temps[r] =
            std::max(result.peak_reg_temps[r], temps[r]);
      }
    }

    const auto temps = grid_->register_temps(result.final_state);
    const double peak = *std::max_element(temps.begin(), temps.end());
    if (std::abs(peak - prev_peak) < config.settle_tolerance_k) {
      result.settled = true;
      break;
    }
    prev_peak = peak;
  }

  result.final_reg_temps = grid_->register_temps(result.final_state);
  result.final_stats = thermal::compute_map_stats(fp, result.final_reg_temps);
  return result;
}

}  // namespace tadfa::sim
