#include "core/thermal_dfa.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "pipeline/analysis_manager.hpp"
#include "support/assert.hpp"

namespace tadfa::core {
namespace {

/// Per-register power (W) of one instruction execution: access energies
/// spread over the instruction's latency, distributed over cells according
/// to the access model.
std::vector<double> instruction_power(
    const ir::Instruction& inst, const AccessDistributionModel& model,
    const machine::TimingModel& timing,
    const machine::TechnologyParams& tech, std::uint32_t n_phys) {
  std::vector<double> p(n_phys, 0.0);
  const double window_s =
      static_cast<double>(timing.cycles(inst)) * tech.cycle_seconds();

  auto add = [&](ir::Reg v, double energy) {
    const std::vector<double>& dist = model.distribution(v);
    TADFA_ASSERT(dist.size() == n_phys);
    const double watts = energy / window_s;
    for (std::uint32_t r = 0; r < n_phys; ++r) {
      if (dist[r] != 0.0) {
        p[r] += watts * dist[r];
      }
    }
  };

  for (ir::Reg u : inst.uses()) {
    add(u, tech.read_energy_j);
  }
  if (auto d = inst.def()) {
    add(*d, tech.write_energy_j);
  }
  return p;
}

}  // namespace

ThermalDfa::ThermalDfa(const thermal::ThermalGrid& grid,
                       const power::PowerModel& power,
                       const machine::TimingModel& timing,
                       ThermalDfaConfig config)
    : grid_(&grid), power_(&power), timing_(timing), config_(config) {
  TADFA_ASSERT(config_.delta_k > 0);
  TADFA_ASSERT(config_.max_iterations >= 1);
}

void ThermalDfa::set_block_profile(std::vector<double> block_counts) {
  profile_ = std::move(block_counts);
}

ThermalDfaResult ThermalDfa::analyze(const ir::Function& func,
                                     const AccessDistributionModel& model,
                                     pipeline::AnalysisManager& am) const {
  const auto t0 = std::chrono::steady_clock::now();

  const machine::Floorplan& fp = grid_->floorplan();
  const machine::TechnologyParams& tech = fp.config().tech;
  const std::uint32_t n_phys = fp.num_registers();

  const dataflow::Cfg& cfg = am.get<dataflow::Cfg>(func);

  // Block execution frequencies: profiled when available, else static
  // (cached per trip-count guess, shared with the ranking stage).
  std::vector<double> freq;
  if (profile_) {
    TADFA_ASSERT(profile_->size() == func.block_count());
    freq = *profile_;
    const double entry_count = std::max(freq[func.entry()], 1.0);
    for (double& f : freq) {
      f = std::max(f / entry_count, 0.0);
    }
  } else {
    freq = pipeline::block_frequencies(am, func, config_.trip_count_guess);
  }

  ThermalDfaResult result;

  // State storage. out_state[b] = thermal state at block exit, as of the
  // latest iteration. prev_instr_temps = last iteration's per-instruction
  // register temps, for the δ test of Fig. 2.
  std::vector<thermal::ThermalState> out_state(func.block_count(),
                                               grid_->initial_state());
  const std::vector<ir::InstrRef> all_refs = func.all_instructions();
  std::vector<std::vector<double>> prev_instr_temps(
      all_refs.size(), std::vector<double>(n_phys, grid_->substrate_temp()));
  std::vector<std::vector<double>> cur_instr_temps = prev_instr_temps;

  // Map InstrRef -> dense index into the vectors above.
  std::vector<std::size_t> block_first(func.block_count(), 0);
  {
    std::size_t idx = 0;
    for (const ir::BasicBlock& b : func.blocks()) {
      block_first[b.id()] = idx;
      idx += b.size();
    }
  }

  const double cycle_s = tech.cycle_seconds();

  // --- Fig. 2 main loop ------------------------------------------------------
  // Do { stop = true; for each block, for each instruction in forward
  // order: estimate thermal state after I; if change exceeds δ, stop =
  // false } While (!stop)
  bool stop = false;
  while (!stop && result.iterations < config_.max_iterations) {
    stop = true;
    ++result.iterations;
    double iteration_delta = 0.0;

    for (ir::BlockId b : cfg.reverse_post_order()) {
      if (!cfg.reachable(b)) {
        continue;
      }
      // Join: merge predecessor exit states per the configured operator
      // (the paper leaves the merge open; the default weighted mean is the
      // expected temperature over incoming paths). The entry block also
      // folds in the boundary (machine at substrate temperature) with unit
      // weight, which covers the self-loop-into-entry corner case.
      thermal::ThermalState state = grid_->initial_state();
      const auto& preds = cfg.predecessors(b);
      const bool include_boundary = b == func.entry();
      if (!preds.empty() || include_boundary) {
        const std::size_t nodes = state.node_temps.size();
        switch (config_.join_mode) {
          case JoinMode::kWeightedMean:
          case JoinMode::kUnweightedMean: {
            double weight_sum = include_boundary ? 1.0 : 0.0;
            std::vector<double> weights(preds.size(), 1.0);
            for (std::size_t pi = 0; pi < preds.size(); ++pi) {
              if (config_.join_mode == JoinMode::kWeightedMean) {
                weights[pi] = std::max(freq[preds[pi]], 1e-12);
              }
              weight_sum += weights[pi];
            }
            if (weight_sum > 0.0) {
              for (std::size_t n = 0; n < nodes; ++n) {
                double acc = include_boundary ? grid_->substrate_temp() : 0.0;
                for (std::size_t pi = 0; pi < preds.size(); ++pi) {
                  acc += weights[pi] * out_state[preds[pi]].node_temps[n];
                }
                state.node_temps[n] = acc / weight_sum;
              }
            }
            break;
          }
          case JoinMode::kMax: {
            // Upper envelope; the substrate-temperature initial state is
            // the floor (it also stands in for the entry boundary).
            for (std::size_t n = 0; n < nodes; ++n) {
              double worst = state.node_temps[n];
              for (ir::BlockId p : preds) {
                worst = std::max(worst, out_state[p].node_temps[n]);
              }
              state.node_temps[n] = worst;
            }
            break;
          }
        }
      }

      // Transfer through the block, instruction by instruction.
      const ir::BasicBlock& block = func.block(b);
      const double block_freq = std::max(freq[b], 1e-12);
      for (std::uint32_t i = 0; i < block.size(); ++i) {
        const ir::Instruction& inst = block.instructions()[i];
        std::vector<double> p =
            instruction_power(inst, model, timing_, tech, n_phys);
        if (config_.include_leakage) {
          const auto temps = grid_->register_temps(state);
          const auto leak = power_->leakage_power(fp, temps);
          for (std::uint32_t r = 0; r < n_phys; ++r) {
            p[r] += leak[r];
          }
        }
        // Frequency scaling: this instruction executes ~block_freq times
        // per program run; model those executions as one contiguous
        // window (same average power, frequency-scaled duration).
        const double dt = static_cast<double>(timing_.cycles(inst)) *
                          cycle_s * block_freq;
        grid_->step(state, p, dt);

        // δ test against the previous iteration's state after I.
        const std::size_t dense = block_first[b] + i;
        cur_instr_temps[dense] = grid_->register_temps(state);
        double change = 0.0;
        for (std::uint32_t r = 0; r < n_phys; ++r) {
          change = std::max(change,
                            std::abs(cur_instr_temps[dense][r] -
                                     prev_instr_temps[dense][r]));
        }
        iteration_delta = std::max(iteration_delta, change);
        if (change > config_.delta_k) {
          stop = false;
        }
      }
      out_state[b] = std::move(state);
    }

    result.delta_history_k.push_back(iteration_delta);
    result.final_delta_k = iteration_delta;
    std::swap(prev_instr_temps, cur_instr_temps);
  }
  result.converged = stop;

  // --- Outputs ----------------------------------------------------------------
  result.per_instruction.reserve(all_refs.size());
  for (std::size_t i = 0; i < all_refs.size(); ++i) {
    InstructionThermal it;
    it.ref = all_refs[i];
    it.reg_temps_k = prev_instr_temps[i];  // final iteration (post-swap)
    it.peak_k = it.reg_temps_k.empty()
                    ? grid_->substrate_temp()
                    : *std::max_element(it.reg_temps_k.begin(),
                                        it.reg_temps_k.end());
    result.peak_anywhere_k = std::max(result.peak_anywhere_k, it.peak_k);
    result.per_instruction.push_back(std::move(it));
  }

  // Exit state: frequency-weighted merge over ret blocks.
  std::vector<double> exit_temps(n_phys, grid_->substrate_temp());
  double w_sum = 0.0;
  std::vector<double> acc(n_phys, 0.0);
  for (const ir::BasicBlock& b : func.blocks()) {
    if (!cfg.reachable(b.id()) || !b.has_terminator() ||
        b.terminator().opcode() != ir::Opcode::kRet) {
      continue;
    }
    const double w = std::max(freq[b.id()], 1e-12);
    const auto temps = grid_->register_temps(out_state[b.id()]);
    for (std::uint32_t r = 0; r < n_phys; ++r) {
      acc[r] += w * temps[r];
    }
    w_sum += w;
  }
  if (w_sum > 0.0) {
    for (std::uint32_t r = 0; r < n_phys; ++r) {
      exit_temps[r] = acc[r] / w_sum;
    }
  }
  result.exit_reg_temps_k = std::move(exit_temps);
  result.exit_stats = thermal::compute_map_stats(fp, result.exit_reg_temps_k);

  result.analysis_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

ThermalDfaResult ThermalDfa::analyze(
    const ir::Function& func, const AccessDistributionModel& model) const {
  pipeline::AnalysisManager am;
  return analyze(func, model, am);
}

ThermalDfaResult ThermalDfa::analyze_post_ra(
    const ir::Function& func, const machine::RegisterAssignment& assignment,
    pipeline::AnalysisManager& am) const {
  const ExactAssignmentModel model(func, grid_->floorplan(), assignment);
  return analyze(func, model, am);
}

ThermalDfaResult ThermalDfa::analyze_post_ra(
    const ir::Function& func,
    const machine::RegisterAssignment& assignment) const {
  const ExactAssignmentModel model(func, grid_->floorplan(), assignment);
  return analyze(func, model);
}

}  // namespace tadfa::core
