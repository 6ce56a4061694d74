// Shared experiment plumbing for the bench harnesses: a standard rig
// (floorplan/grid/power/timing), the allocate-run-trace-replay pipeline,
// and map printing. Every bench binary prints its results as TextTable
// rows.
#pragma once

#include <iostream>
#include <optional>
#include <string>

#include "core/thermal_dfa.hpp"
#include "power/model.hpp"
#include "regalloc/graph_coloring.hpp"
#include "regalloc/linear_scan.hpp"
#include "regalloc/policy.hpp"
#include "sim/interpreter.hpp"
#include "sim/thermal_replay.hpp"
#include "support/heatmap.hpp"
#include "support/statistics.hpp"
#include "support/table.hpp"
#include "thermal/map_stats.hpp"
#include "workload/kernels.hpp"
#include "workload/random_program.hpp"

namespace tadfa::bench {

struct Rig {
  machine::Floorplan fp{machine::RegisterFileConfig::default_config()};
  thermal::ThermalGrid grid{fp};
  power::PowerModel power{fp.config()};
  machine::TimingModel timing;

  explicit Rig(machine::RegisterFileConfig cfg =
                   machine::RegisterFileConfig::default_config())
      : fp(cfg), grid(fp), power(cfg) {}
};

/// Allocates `func` with the named policy (linear scan).
inline regalloc::AllocationResult allocate(
    const Rig& rig, const ir::Function& func, const std::string& policy_name,
    std::uint64_t seed = 42,
    const std::vector<double>* heat_scores = nullptr) {
  auto policy = regalloc::make_policy(policy_name, seed);
  if (policy == nullptr) {
    std::cerr << "unknown policy: " << policy_name << "\n";
    std::exit(1);
  }
  regalloc::LinearScanAllocator alloc(rig.fp, *policy);
  if (heat_scores != nullptr) {
    alloc.set_heat_scores(*heat_scores);
  }
  return alloc.allocate(func);
}

/// Runs the kernel traced and replays the trace thermally to steady state.
struct Measurement {
  sim::ReplayResult replay;
  /// Per-register access totals from the trace (reads + writes).
  std::vector<double> access_counts;
  std::uint64_t cycles = 0;
  bool ok = false;
};

inline Measurement measure(const Rig& rig, const workload::Kernel& kernel,
                           const ir::Function& func,
                           const machine::RegisterAssignment& assignment,
                           int max_repeats = 60,
                           const std::vector<bool>& gated_banks = {}) {
  Measurement m;
  sim::Interpreter interp(func, rig.timing);
  if (kernel.init_memory) {
    kernel.init_memory(interp.memory());
  }
  power::AccessTrace trace(rig.fp.num_registers());
  const auto run = interp.run_traced(kernel.default_args, assignment, trace);
  if (!run.ok()) {
    std::cerr << "kernel " << kernel.name << " trapped: "
              << run.trap.value_or("?") << "\n";
    return m;
  }
  m.cycles = run.cycles;
  m.access_counts.reserve(trace.num_registers());
  for (const power::AccessCounts& c : trace.totals()) {
    m.access_counts.push_back(static_cast<double>(c.total()));
  }
  const sim::ThermalReplay replay(rig.grid, rig.power);
  sim::ReplayConfig cfg;
  cfg.max_repeats = max_repeats;
  cfg.gated_banks = gated_banks;
  m.replay = replay.replay(trace, cfg);
  m.ok = true;
  return m;
}

/// Prints a register-file temperature map in °C with a shared scale.
inline void print_map(const Rig& rig, const std::vector<double>& temps_k,
                      const std::string& caption,
                      std::optional<double> scale_min_k = {},
                      std::optional<double> scale_max_k = {}) {
  std::vector<double> celsius(temps_k.size());
  for (std::size_t i = 0; i < temps_k.size(); ++i) {
    celsius[i] = temps_k[i] - 273.15;
  }
  HeatmapOptions opt;
  if (scale_min_k) {
    opt.scale_min = *scale_min_k - 273.15;
  }
  if (scale_max_k) {
    opt.scale_max = *scale_max_k - 273.15;
  }
  std::cout << "--- " << caption << " (degC) ---\n";
  render_heatmap(std::cout, celsius, rig.fp.rows(), rig.fp.cols(), opt);
}

inline std::string fmt(double v, int precision = 3) {
  return TextTable::num(v, precision);
}

}  // namespace tadfa::bench
