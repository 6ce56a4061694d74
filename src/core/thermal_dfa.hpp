// Thermal data flow analysis — the paper's primary contribution (Fig. 2).
//
// A forward analysis whose domain is the discrete thermal state of the
// register file. Per iteration it walks every basic block in reverse
// post-order; at block entry it merges predecessor exit states (weighted by
// estimated edge frequency), then pushes the state through each instruction:
// the instruction's register accesses become power applied to the
// floorplan-aware RC grid for the instruction's (frequency-scaled) latency.
// Iteration stops when no instruction's predicted thermal state changed by
// more than δ — or is declared non-convergent after max_iterations, which
// the paper interprets as "the thermal state of the program may be too
// difficult to predict at compile time due to a very irregular data usage".
// A block whose predecessors' exit states are bit for bit the ones it last
// ran with is carried instead of re-run: its run depends on nothing else,
// so a re-run would reproduce its rows and exit state with zero change,
// and carrying it moves no output bit.
//
// Differences from the classical framework (dataflow/framework.hpp) that
// the paper calls out:
//   * the domain is a real vector, not a finite lattice;
//   * "equality" is δ-approximate;
//   * convergence is empirical, not guaranteed.
#pragma once

#include <optional>
#include <vector>

#include "core/access_model.hpp"
#include "dataflow/cfg.hpp"
#include "dataflow/loop_info.hpp"
#include "machine/timing.hpp"
#include "power/model.hpp"
#include "thermal/grid.hpp"
#include "thermal/map_stats.hpp"

namespace tadfa::pipeline {
class AnalysisManager;
}

namespace tadfa::core {

/// How predecessor exit states are merged at a join point. The paper
/// leaves the merge operator open; this is an explicit design choice with
/// measurable consequences (see bench/ablation_join):
///   kWeightedMean   expected temperature over incoming paths, weighted by
///                   estimated edge frequency (default; keeps the state
///                   physical and damps oscillation);
///   kUnweightedMean every predecessor counts equally;
///   kMax            worst-case-hot join (conservative upper envelope).
enum class JoinMode { kWeightedMean, kUnweightedMean, kMax };

struct ThermalDfaConfig {
  /// δ — per-instruction convergence threshold (kelvin), the user-supplied
  /// parameter of Fig. 2.
  double delta_k = 0.01;
  /// The "reasonable number of iterations" after which non-convergence is
  /// declared (empirical / user-defined per the paper).
  int max_iterations = 100;
  /// Static loop trip-count guess for frequency scaling.
  double trip_count_guess = 10.0;
  /// Include temperature-dependent leakage in the per-step power.
  bool include_leakage = true;
  /// Merge operator at control-flow joins.
  JoinMode join_mode = JoinMode::kWeightedMean;
};

/// Thermal state predicted after one instruction (cell granularity).
struct InstructionThermal {
  ir::InstrRef ref;
  std::vector<double> reg_temps_k;
  double peak_k = 0;

  friend bool operator==(const InstructionThermal&,
                         const InstructionThermal&) = default;
};

struct ThermalDfaResult {
  bool converged = false;
  int iterations = 0;
  /// Largest per-instruction state change seen in the final iteration.
  double final_delta_k = 0;
  /// Thermal state following each instruction (function order), from the
  /// final iteration — the output Fig. 2 specifies.
  std::vector<InstructionThermal> per_instruction;
  /// Register temperatures at function exit (merged over all ret blocks).
  std::vector<double> exit_reg_temps_k;
  thermal::MapStats exit_stats;
  /// Hottest predicted cell temperature anywhere in the program.
  double peak_anywhere_k = 0;
  /// Wall-clock cost of the analysis (Sec. 3's "increased computation
  /// time" axis).
  double analysis_seconds = 0;

  /// max-|Δ| between consecutive iterations, one entry per iteration
  /// (monotone decay = well-behaved program; plateaus = irregular).
  std::vector<double> delta_history_k;

  friend bool operator==(const ThermalDfaResult&,
                         const ThermalDfaResult&) = default;
};

class ThermalDfa {
 public:
  ThermalDfa(const thermal::ThermalGrid& grid,
             const power::PowerModel& power,
             const machine::TimingModel& timing,
             ThermalDfaConfig config = {});

  /// Overrides the static frequency estimate with profiled block execution
  /// counts (index = BlockId).
  void set_block_profile(std::vector<double> block_counts);

  /// Runs the analysis. `model` supplies each virtual register's
  /// distribution over physical cells — exact post-RA (delta) or
  /// predictive pre-RA (probabilistic). The manager-taking overload
  /// requests Cfg / LoopInfo / block frequencies through `am` so repeated
  /// analyses (and the critical-variable ranking that follows) share
  /// them; the plain one uses a private manager.
  ThermalDfaResult analyze(const ir::Function& func,
                           const AccessDistributionModel& model,
                           pipeline::AnalysisManager& am) const;
  ThermalDfaResult analyze(const ir::Function& func,
                           const AccessDistributionModel& model) const;

  /// Convenience: post-RA exact analysis.
  ThermalDfaResult analyze_post_ra(const ir::Function& func,
                                   const machine::RegisterAssignment& assignment,
                                   pipeline::AnalysisManager& am) const;
  ThermalDfaResult analyze_post_ra(
      const ir::Function& func,
      const machine::RegisterAssignment& assignment) const;

  const ThermalDfaConfig& config() const { return config_; }
  const thermal::ThermalGrid& grid() const { return *grid_; }
  const power::PowerModel& power_model() const { return *power_; }
  const machine::TimingModel& timing() const { return timing_; }

 private:
  const thermal::ThermalGrid* grid_;
  const power::PowerModel* power_;
  machine::TimingModel timing_;
  ThermalDfaConfig config_;
  std::optional<std::vector<double>> profile_;
};

}  // namespace tadfa::core
