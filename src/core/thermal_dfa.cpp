#include "core/thermal_dfa.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>

#include "pipeline/analysis_manager.hpp"
#include "support/assert.hpp"
#include "support/target_clones.hpp"

namespace tadfa::core {
namespace {

/// Per-register power (W) of one instruction execution: access energies
/// spread over the instruction's latency, distributed over cells according
/// to the access model. Accumulates into `p`, which starts at zero.
void instruction_power(const ir::Instruction& inst,
                       const AccessDistributionModel& model,
                       const machine::TimingModel& timing,
                       const machine::TechnologyParams& tech,
                       std::span<double> p) {
  const std::size_t n_phys = p.size();
  const double window_s =
      static_cast<double>(timing.cycles(inst)) * tech.cycle_seconds();

  auto add = [&](ir::Reg v, double energy) {
    const std::vector<double>& dist = model.distribution(v);
    TADFA_ASSERT(dist.size() == n_phys);
    const double watts = energy / window_s;
    for (std::size_t r = 0; r < n_phys; ++r) {
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
}

/// Fig. 2's change of one instruction: the largest |cur[r] − prev[r]|,
/// skipping NaN as std::max(change, d) does. kLanes independent running
/// maxima replace one n-long dependent chain. Each lane skips NaN the
/// same way and |x| is never −0, so every maximum taken is over values
/// without NaN or −0, which no order changes: the result equals that
/// chain's bit for bit.
TADFA_TARGET_CLONES
double max_abs_change(const double* cur, const double* prev, std::size_t n) {
  constexpr std::size_t kLanes = 8;
  double lane[kLanes] = {};
  std::size_t r = 0;
  for (; r + kLanes <= n; r += kLanes) {
    for (std::size_t k = 0; k < kLanes; ++k) {
      lane[k] = std::max(lane[k], std::abs(cur[r + k] - prev[r + k]));
    }
  }
  for (; r < n; ++r) {
    lane[0] = std::max(lane[0], std::abs(cur[r] - prev[r]));
  }
  double change = 0.0;
  for (const double m : lane) {
    change = std::max(change, m);
  }
  return change;
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

  // Dense per-instruction rows (function order, n_phys wide). Each
  // instruction's dynamic power and window length never change between
  // iterations, so they are computed once. Unreachable blocks are never
  // visited and keep zero rows.
  const std::vector<ir::InstrRef> all_refs = func.all_instructions();
  const std::size_t n_instr = all_refs.size();
  const double cycle_s = tech.cycle_seconds();
  std::vector<std::size_t> block_first(func.block_count(), 0);
  std::vector<double> dyn_power(n_instr * n_phys, 0.0);
  std::vector<double> window_s(n_instr, 0.0);
  {
    std::size_t idx = 0;
    for (const ir::BasicBlock& b : func.blocks()) {
      block_first[b.id()] = idx;
      // Frequency scaling: an instruction executes ~block_freq times per
      // program run; model those executions as one contiguous window
      // (same average power, frequency-scaled duration).
      const double block_freq = std::max(freq[b.id()], 1e-12);
      for (const ir::Instruction& inst : b.instructions()) {
        if (cfg.reachable(b.id())) {
          instruction_power(inst, model, timing_, tech,
                            {&dyn_power[idx * n_phys], n_phys});
          window_s[idx] = static_cast<double>(timing_.cycles(inst)) *
                          cycle_s * block_freq;
        }
        ++idx;
      }
    }
  }

  // out_state[b] = thermal state at block exit, as of the latest
  // iteration. prev_temps = last iteration's per-instruction register
  // temps, for the δ test of Fig. 2; cur_temps = this iteration's.
  std::vector<thermal::ThermalState> out_state(func.block_count(),
                                               grid_->initial_state());
  std::vector<double> prev_temps(n_instr * n_phys, grid_->substrate_temp());
  std::vector<double> cur_temps = prev_temps;

  // Carry rule: a block's run depends only on its predecessors' exit
  // states, so a block whose inputs are bit for bit the ones it last ran
  // with keeps its rows and exit state (a re-run would reproduce them with
  // zero change). out_version[b] counts the runs of b that moved its exit
  // state; ran_with[b] is the sum of b's predecessors' versions at its
  // last run. Versions only grow, so the sum moves iff an input moved.
  constexpr std::uint64_t kNeverRan = std::numeric_limits<std::uint64_t>::max();
  std::vector<std::uint64_t> out_version(func.block_count(), 0);
  std::vector<std::uint64_t> ran_with(func.block_count(), kNeverRan);

  // Scratch reused by every transfer. `state` trades places with
  // out_state[b] after each block run, so every block's entry state is
  // written into a plane of the grid's layout. reg_temps points at the
  // register temperatures of `state`: the leakage input of the next
  // instruction.
  thermal::ThermalState state = grid_->initial_state();
  std::vector<double> weights;
  std::vector<const double*> pred_temps;
  std::vector<double> entry_temps(n_phys);
  std::vector<double> power(n_phys);

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
      const auto& preds = cfg.predecessors(b);
      const std::size_t first = block_first[b];
      const std::size_t end = first + func.block(b).size();
      std::uint64_t inputs = 0;
      for (ir::BlockId p : preds) {
        inputs += out_version[p];
      }
      if (inputs == ran_with[b]) {
        // Carried: copy its rows forward so the end-of-iteration swap
        // keeps them.
        std::copy(prev_temps.begin() + first * n_phys,
                  prev_temps.begin() + end * n_phys,
                  cur_temps.begin() + first * n_phys);
        continue;
      }
      ran_with[b] = inputs;

      // Join: merge predecessor exit states per the configured operator
      // (the paper leaves the merge open; the default weighted mean is the
      // expected temperature over incoming paths). The entry block also
      // folds in the boundary (machine at substrate temperature) with unit
      // weight, which covers the self-loop-into-entry corner case. A
      // block with no input starts at the substrate temperature.
      const std::span<double> entry = state.nodes();
      const double substrate = grid_->substrate_temp();
      const bool include_boundary = b == func.entry();
      pred_temps.clear();
      for (ir::BlockId p : preds) {
        pred_temps.push_back(out_state[p].nodes().data());
      }
      switch (config_.join_mode) {
        case JoinMode::kWeightedMean:
        case JoinMode::kUnweightedMean: {
          double weight_sum = include_boundary ? 1.0 : 0.0;
          weights.assign(preds.size(), 1.0);
          for (std::size_t pi = 0; pi < preds.size(); ++pi) {
            if (config_.join_mode == JoinMode::kWeightedMean) {
              weights[pi] = std::max(freq[preds[pi]], 1e-12);
            }
            weight_sum += weights[pi];
          }
          if (weight_sum > 0.0) {
            for (std::size_t n = 0; n < entry.size(); ++n) {
              double acc = include_boundary ? substrate : 0.0;
              for (std::size_t pi = 0; pi < preds.size(); ++pi) {
                acc += weights[pi] * pred_temps[pi][n];
              }
              entry[n] = acc / weight_sum;
            }
          } else {
            std::ranges::fill(entry, substrate);
          }
          break;
        }
        case JoinMode::kMax: {
          // Upper envelope; the substrate temperature is the floor (it
          // also stands in for the entry boundary).
          for (std::size_t n = 0; n < entry.size(); ++n) {
            double worst = substrate;
            for (const double* temps : pred_temps) {
              worst = std::max(worst, temps[n]);
            }
            entry[n] = worst;
          }
          break;
        }
      }

      // Transfer through the block, instruction by instruction.
      const double* reg_temps = entry_temps.data();
      if (config_.include_leakage) {
        grid_->register_temps(state, entry_temps);
      }
      for (std::size_t dense = first; dense < end; ++dense) {
        std::span<const double> p(&dyn_power[dense * n_phys], n_phys);
        if (config_.include_leakage) {
          power_->leakage_power(fp, {reg_temps, n_phys}, p, power);
          p = power;
        }
        grid_->step(state, p, window_s[dense]);

        // δ test against the previous iteration's state after I.
        double* cur = &cur_temps[dense * n_phys];
        grid_->register_temps(state, {cur, n_phys});
        const double change =
            max_abs_change(cur, &prev_temps[dense * n_phys], n_phys);
        iteration_delta = std::max(iteration_delta, change);
        if (change > config_.delta_k) {
          stop = false;
        }
        reg_temps = cur;
      }
      // step() may have traded the state's plane for its spare, so the
      // exit nodes are read afresh.
      const std::span<const double> exit = state.nodes();
      if (std::memcmp(exit.data(), out_state[b].nodes().data(),
                      exit.size_bytes()) != 0) {
        ++out_version[b];
      }
      std::swap(out_state[b], state);
    }

    result.delta_history_k.push_back(iteration_delta);
    result.final_delta_k = iteration_delta;
    std::swap(prev_temps, cur_temps);
  }
  result.converged = stop;

  // --- Outputs ----------------------------------------------------------------
  result.per_instruction.reserve(n_instr);
  for (std::size_t i = 0; i < n_instr; ++i) {
    InstructionThermal it;
    it.ref = all_refs[i];
    // Final iteration (post-swap).
    it.reg_temps_k.assign(prev_temps.begin() + i * n_phys,
                          prev_temps.begin() + (i + 1) * n_phys);
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
