// Trace-driven thermal simulation (the feedback-driven baseline).
//
// Converts an access trace to windowed per-register power (dynamic +
// temperature-dependent leakage) and integrates the RC grid through it.
// Optionally repeats the trace until the thermal state settles, modelling a
// kernel that runs continuously (how Fig. 1's maps arise).
#pragma once

#include "power/access_trace.hpp"
#include "power/model.hpp"
#include "thermal/grid.hpp"
#include "thermal/map_stats.hpp"

namespace tadfa::sim {

struct ReplayConfig {
  /// Power-averaging window (cycles). Smaller = finer transient detail.
  std::uint64_t window_cycles = 256;
  /// Repeat the trace up to this many times...
  int max_repeats = 1;
  /// ...stopping early once the hottest register moves less than this
  /// (K) over one full repeat. The first repeat compares against the
  /// initial (substrate-temperature) state, so every configuration —
  /// including max_repeats == 1 — can report `settled`: a single-repeat
  /// replay settles iff its one pass left the peak within the tolerance
  /// of where it started.
  double settle_tolerance_k = 1e-3;
  /// Include temperature-dependent leakage in the power input.
  bool include_leakage = true;
  /// Banks that are power-gated for the whole run (see opt/bank_gating).
  std::vector<bool> gated_banks;
};

struct ReplayResult {
  thermal::ThermalState final_state;
  std::vector<double> final_reg_temps;
  /// Per-register maximum over all windows.
  std::vector<double> peak_reg_temps;
  thermal::MapStats final_stats;
  int repeats_run = 0;
  /// True when the last repeat moved the peak temperature less than
  /// ReplayConfig::settle_tolerance_k (see there for the exact rule).
  bool settled = false;
  double dynamic_energy_j = 0;
  double leakage_energy_j = 0;
};

class ThermalReplay {
 public:
  ThermalReplay(const thermal::ThermalGrid& grid,
                const power::PowerModel& model)
      : grid_(&grid), model_(&model) {}

  ReplayResult replay(const power::AccessTrace& trace,
                      const ReplayConfig& config = {}) const;

 private:
  const thermal::ThermalGrid* grid_;
  const power::PowerModel* model_;
};

}  // namespace tadfa::sim
