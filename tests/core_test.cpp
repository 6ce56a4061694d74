// Tests for src/core — the thermal data flow analysis itself: convergence
// behavior (Fig. 2), δ monotonicity, determinism, frequency/profile modes,
// pre-RA predictive models, accuracy against the trace-driven ground
// truth, and critical-variable ranking.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <utility>

#include "core/access_model.hpp"
#include "ir/builder.hpp"
#include "core/critical.hpp"
#include "core/thermal_dfa.hpp"
#include "dataflow/liveness.hpp"
#include "frontend/frontend.hpp"
#include "machine/machine_config.hpp"
#include "pipeline/analysis_manager.hpp"
#include "regalloc/linear_scan.hpp"
#include "regalloc/policy.hpp"
#include "sim/interpreter.hpp"
#include "sim/thermal_replay.hpp"
#include "support/serialize.hpp"
#include "support/statistics.hpp"
#include "support/target_clones.hpp"
#include "workload/kernels.hpp"
#include "workload/random_program.hpp"

namespace tadfa::core {
namespace {

struct Rig {
  machine::Floorplan fp{machine::RegisterFileConfig::default_config()};
  thermal::ThermalGrid grid{fp};
  power::PowerModel power{fp.config()};
  machine::TimingModel timing;
};

regalloc::AllocationResult allocate(const Rig& s, const ir::Function& f,
                                    const std::string& policy = "first_free") {
  auto p = regalloc::make_policy(policy);
  regalloc::LinearScanAllocator alloc(s.fp, *p);
  return alloc.allocate(f);
}

// ------------------------------------------------------------ convergence ----

TEST(ThermalDfa, ConvergesOnKernels) {
  Rig s;
  const ThermalDfa dfa(s.grid, s.power, s.timing);
  for (const auto& name : {"vecsum", "crc32", "fir", "counter"}) {
    auto k = workload::make_kernel(name);
    ASSERT_TRUE(k.has_value());
    const auto alloc = allocate(s, k->func);
    const auto result = dfa.analyze_post_ra(alloc.func, alloc.assignment);
    EXPECT_TRUE(result.converged) << name;
    EXPECT_GE(result.iterations, 2) << name;  // at least one re-check pass
    EXPECT_LE(result.final_delta_k, dfa.config().delta_k) << name;
  }
}

TEST(ThermalDfa, IsDeterministic) {
  Rig s;
  const ThermalDfa dfa(s.grid, s.power, s.timing);
  auto k = workload::make_crc32(32);
  const auto alloc = allocate(s, k.func);
  const auto a = dfa.analyze_post_ra(alloc.func, alloc.assignment);
  const auto b = dfa.analyze_post_ra(alloc.func, alloc.assignment);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.exit_reg_temps_k, b.exit_reg_temps_k);
}

TEST(ThermalDfa, TighterDeltaNeedsMoreIterations) {
  Rig s;
  auto k = workload::make_fir();
  const auto alloc = allocate(s, k.func);

  int prev_iterations = 0;
  for (double delta : {1.0, 0.1, 0.001}) {
    ThermalDfaConfig cfg;
    cfg.delta_k = delta;
    cfg.max_iterations = 500;
    const ThermalDfa dfa(s.grid, s.power, s.timing, cfg);
    const auto result = dfa.analyze_post_ra(alloc.func, alloc.assignment);
    EXPECT_GE(result.iterations, prev_iterations) << "delta=" << delta;
    prev_iterations = result.iterations;
  }
}

TEST(ThermalDfa, IterationCapFlagsNonConvergence) {
  Rig s;
  ThermalDfaConfig cfg;
  cfg.delta_k = 1e-12;  // unreachably tight
  cfg.max_iterations = 2;
  const ThermalDfa dfa(s.grid, s.power, s.timing, cfg);
  auto k = workload::make_fir();
  const auto alloc = allocate(s, k.func);
  const auto result = dfa.analyze_post_ra(alloc.func, alloc.assignment);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.iterations, 2);
  EXPECT_GT(result.final_delta_k, cfg.delta_k);
}

TEST(ThermalDfa, DeltaHistoryDecaysForRegularPrograms) {
  Rig s;
  ThermalDfaConfig cfg;
  cfg.delta_k = 1e-4;
  cfg.max_iterations = 300;
  const ThermalDfa dfa(s.grid, s.power, s.timing, cfg);
  auto k = workload::make_vecsum();
  const auto alloc = allocate(s, k.func);
  const auto result = dfa.analyze_post_ra(alloc.func, alloc.assignment);
  ASSERT_GE(result.delta_history_k.size(), 3u);
  // Late deltas are much smaller than early ones.
  EXPECT_LT(result.delta_history_k.back(),
            result.delta_history_k.front() * 0.5 + 1e-12);
}

// ------------------------------------------------------------ output shape ----

TEST(ThermalDfa, PerInstructionStatesCoverFunction) {
  Rig s;
  const ThermalDfa dfa(s.grid, s.power, s.timing);
  auto k = workload::make_counter(64);
  const auto alloc = allocate(s, k.func);
  const auto result = dfa.analyze_post_ra(alloc.func, alloc.assignment);
  EXPECT_EQ(result.per_instruction.size(), alloc.func.instruction_count());
  for (const InstructionThermal& it : result.per_instruction) {
    EXPECT_EQ(it.reg_temps_k.size(), s.fp.num_registers());
    EXPECT_GE(it.peak_k, s.grid.substrate_temp() - 1e-9);
  }
  EXPECT_GE(result.peak_anywhere_k, result.exit_stats.peak_k - 1e-9);
}

TEST(ThermalDfa, HotLoopRegistersArePredictedHot) {
  Rig s;
  const ThermalDfa dfa(s.grid, s.power, s.timing);
  auto k = workload::make_crc32(32);
  const auto alloc = allocate(s, k.func);
  const auto result = dfa.analyze_post_ra(alloc.func, alloc.assignment);
  // crc32 under first-free hammers a handful of low registers; the hottest
  // predicted cell must be one of them.
  const auto hottest = static_cast<machine::PhysReg>(
      stats::top_k_indices(result.exit_reg_temps_k, 1)[0]);
  EXPECT_LT(hottest, 12u);
  EXPECT_GT(result.exit_stats.peak_k, s.grid.substrate_temp() + 0.01);
}

TEST(ThermalDfa, AnalysisTimeRecorded) {
  Rig s;
  const ThermalDfa dfa(s.grid, s.power, s.timing);
  auto k = workload::make_vecsum(32);
  const auto alloc = allocate(s, k.func);
  const auto result = dfa.analyze_post_ra(alloc.func, alloc.assignment);
  EXPECT_GT(result.analysis_seconds, 0.0);
}

// -------------------------------------------------------- frequency modes ----

TEST(ThermalDfa, ProfileModeUsesMeasuredCounts) {
  Rig s;
  auto k = workload::make_counter(2048);
  const auto alloc = allocate(s, k.func);

  // Static estimate assumes ~10 trips; profile says 2048.
  const ThermalDfa static_dfa(s.grid, s.power, s.timing);
  const auto static_result =
      static_dfa.analyze_post_ra(alloc.func, alloc.assignment);

  sim::Interpreter interp(alloc.func, s.timing);
  const auto run = interp.run(k.default_args);
  ASSERT_TRUE(run.ok());
  std::vector<double> profile(run.block_visits.begin(),
                              run.block_visits.end());
  ThermalDfa profiled_dfa(s.grid, s.power, s.timing);
  profiled_dfa.set_block_profile(profile);
  const auto profiled_result =
      profiled_dfa.analyze_post_ra(alloc.func, alloc.assignment);

  // The profiled run knows the loop dominates: its predicted peak must be
  // at least the static one (longer time at loop power).
  EXPECT_GE(profiled_result.exit_stats.peak_k + 1e-9,
            static_result.exit_stats.peak_k);
}

// ----------------------------------------------------------- access models ----

TEST(AccessModels, ExactModelIsDelta) {
  Rig s;
  auto k = workload::make_vecsum(16);
  const auto alloc = allocate(s, k.func);
  const ExactAssignmentModel model(alloc.func, s.fp, alloc.assignment);
  for (ir::Reg v = 0; v < alloc.func.reg_count(); ++v) {
    if (!alloc.assignment.assigned(v)) {
      continue;
    }
    const auto& dist = model.distribution(v);
    double sum = 0;
    for (double p : dist) {
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(dist[alloc.assignment.phys(v)], 1.0);
  }
}

TEST(AccessModels, FirstFitConcentratesOnWindow) {
  Rig s;
  auto k = workload::make_vecsum(16);
  const FirstFitPredictionModel model(k.func, s.fp, 6);
  const auto& dist = model.distribution(0);
  double low = 0;
  double high = 0;
  for (std::size_t r = 0; r < dist.size(); ++r) {
    (r < 6 ? low : high) += dist[r];
  }
  EXPECT_NEAR(low, 1.0, 1e-12);
  EXPECT_NEAR(high, 0.0, 1e-12);
}

TEST(AccessModels, UniformSpreadsEverywhere) {
  Rig s;
  auto k = workload::make_vecsum(16);
  const UniformPredictionModel model(k.func, s.fp);
  const auto& dist = model.distribution(0);
  for (double p : dist) {
    EXPECT_NEAR(p, 1.0 / 64.0, 1e-12);
  }
}

TEST(AccessModels, PreRaPredictsFirstFitShape) {
  // The paper's ambition: predict BEFORE assignment. The first-fit
  // prediction model should correlate with the post-RA truth for a
  // first-free allocation far better than the uniform model does.
  Rig s;
  auto k = workload::make_crc32(32);
  const auto alloc = allocate(s, k.func, "first_free");

  const dataflow::Cfg cfg(alloc.func);
  const dataflow::Liveness lv(cfg);
  const FirstFitPredictionModel ff(alloc.func, s.fp, lv.max_pressure());
  const UniformPredictionModel uni(alloc.func, s.fp);

  const ThermalDfa dfa(s.grid, s.power, s.timing);
  const auto exact = dfa.analyze_post_ra(alloc.func, alloc.assignment);
  const auto pred_ff = dfa.analyze(alloc.func, ff);
  const auto pred_uni = dfa.analyze(alloc.func, uni);

  const double err_ff =
      stats::rmse(exact.exit_reg_temps_k, pred_ff.exit_reg_temps_k);
  const double err_uni =
      stats::rmse(exact.exit_reg_temps_k, pred_uni.exit_reg_temps_k);
  EXPECT_LT(err_ff, err_uni);
}

// ----------------------------------------------------- accuracy vs replay ----

TEST(Accuracy, DfaTracksTraceDrivenGroundTruth) {
  // Central claim: the compile-time analysis approximates what the
  // trace-driven (feedback) pipeline measures. Check rank agreement on a
  // loop kernel with profiled frequencies.
  Rig s;
  auto k = workload::make_crc32(64);
  const auto alloc = allocate(s, k.func);

  sim::Interpreter interp(alloc.func, s.timing);
  if (k.init_memory) {
    k.init_memory(interp.memory());
  }
  power::AccessTrace trace(s.fp.num_registers());
  const auto run = interp.run_traced(k.default_args, alloc.assignment, trace);
  ASSERT_TRUE(run.ok());

  const sim::ThermalReplay replay(s.grid, s.power);
  sim::ReplayConfig rcfg;
  rcfg.max_repeats = 50;
  const auto truth = replay.replay(trace, rcfg);

  ThermalDfa dfa(s.grid, s.power, s.timing);
  std::vector<double> profile(run.block_visits.begin(),
                              run.block_visits.end());
  dfa.set_block_profile(profile);
  const auto predicted = dfa.analyze_post_ra(alloc.func, alloc.assignment);

  // Rank correlation between predicted and measured register temps.
  const double corr = stats::pearson(predicted.exit_reg_temps_k,
                                     truth.final_reg_temps);
  EXPECT_GT(corr, 0.8);

  // Hotspot overlap: the top-4 predicted hot registers substantially
  // overlap the measured top-4.
  const auto pred_hot = stats::top_k_indices(predicted.exit_reg_temps_k, 4);
  const auto true_hot = stats::top_k_indices(truth.final_reg_temps, 4);
  EXPECT_GE(stats::jaccard(pred_hot, true_hot), 0.3);
}

// ------------------------------------------------------- critical variables ----

TEST(Critical, LoopVariablesRankHighest) {
  Rig s;
  auto k = workload::make_crc32(32);
  const auto alloc = allocate(s, k.func);
  const ThermalDfa dfa(s.grid, s.power, s.timing);
  const auto result = dfa.analyze_post_ra(alloc.func, alloc.assignment);
  const ExactAssignmentModel model(alloc.func, s.fp, alloc.assignment);
  const auto ranking = rank_critical_variables(alloc.func, model, result,
                                               s.grid, s.timing);
  ASSERT_FALSE(ranking.empty());
  // Scores are sorted descending.
  for (std::size_t i = 1; i < ranking.size(); ++i) {
    EXPECT_GE(ranking[i - 1].score, ranking[i].score);
  }
  // The top variable is accessed inside the loop (weighted accesses beyond
  // its static count).
  EXPECT_GT(ranking.front().weighted_accesses, 8.0);
  EXPECT_GT(ranking.front().energy_rate_w, 0.0);
}

TEST(Critical, UnusedRegistersExcluded) {
  Rig s;
  ir::Function f("u");
  f.ensure_regs(10);  // registers 1..9 never appear
  const auto blk = f.add_block();
  f.block(blk).append(ir::Instruction(ir::Opcode::kConst, 0,
                                      {ir::Operand::imm(1)}));
  f.block(blk).append(ir::Instruction(ir::Opcode::kRet, ir::kInvalidReg,
                                      {ir::Operand::reg(0)}));
  const auto alloc = allocate(s, f);
  const ThermalDfa dfa(s.grid, s.power, s.timing);
  const auto result = dfa.analyze_post_ra(alloc.func, alloc.assignment);
  const ExactAssignmentModel model(alloc.func, s.fp, alloc.assignment);
  const auto ranking = rank_critical_variables(alloc.func, model, result,
                                               s.grid, s.timing);
  EXPECT_EQ(ranking.size(), 1u);
  EXPECT_EQ(ranking[0].vreg, 0u);
}

TEST(Critical, HotProgramPointsAboveSigma) {
  Rig s;
  auto k = workload::make_crc32(32);
  const auto alloc = allocate(s, k.func);
  const ThermalDfa dfa(s.grid, s.power, s.timing);
  const auto result = dfa.analyze_post_ra(alloc.func, alloc.assignment);
  // Most in-loop peaks cluster tightly at the top, so discriminate at the
  // mean: loop instructions sit above it, prologue/epilogue below.
  const auto hot = hot_program_points(result, 0.0);
  EXPECT_FALSE(hot.empty());
  EXPECT_LT(hot.size(), result.per_instruction.size());
  for (const auto& hp : hot) {
    EXPECT_NE(hp.ref.block, 0u);  // never the entry block
  }
}

// ---------------------------------------------------- granularity (Sec. 3) ----

TEST(Granularity, FinerGridsCostMore) {
  Rig s;
  auto k = workload::make_fir(64, 8);
  const auto alloc = allocate(s, k.func);

  const thermal::ThermalGrid coarse(s.fp, 1);
  const thermal::ThermalGrid fine(s.fp, 3);
  const ThermalDfa dfa_coarse(coarse, s.power, s.timing);
  const ThermalDfa dfa_fine(fine, s.power, s.timing);
  const auto rc = dfa_coarse.analyze_post_ra(alloc.func, alloc.assignment);
  const auto rf = dfa_fine.analyze_post_ra(alloc.func, alloc.assignment);
  EXPECT_TRUE(rc.converged);
  EXPECT_TRUE(rf.converged);
  // Cell-level predictions agree within tens of mK; node count is 9x.
  EXPECT_NEAR(rc.exit_stats.peak_k, rf.exit_stats.peak_k, 0.2);
}

}  // namespace
}  // namespace tadfa::core

// Appended: join-mode ablation coverage.
namespace tadfa::core {
namespace {

TEST(JoinModes, AllConvergeOnLoopKernel) {
  Rig s;
  auto k = workload::make_crc32(16);
  const auto alloc = allocate(s, k.func);
  for (JoinMode mode : {JoinMode::kWeightedMean, JoinMode::kUnweightedMean,
                        JoinMode::kMax}) {
    ThermalDfaConfig cfg;
    cfg.delta_k = 0.01;
    cfg.max_iterations = 500;
    cfg.join_mode = mode;
    const ThermalDfa dfa(s.grid, s.power, s.timing, cfg);
    const auto r = dfa.analyze_post_ra(alloc.func, alloc.assignment);
    EXPECT_TRUE(r.converged) << static_cast<int>(mode);
  }
}

TEST(JoinModes, MaxDominatesMeans) {
  // The max join is an upper envelope: its exit map must dominate the
  // weighted mean's everywhere.
  Rig s;
  auto k = workload::make_crc32(16);
  const auto alloc = allocate(s, k.func);
  ThermalDfaConfig cfg;
  cfg.delta_k = 0.001;
  cfg.max_iterations = 500;
  const ThermalDfa mean_dfa(s.grid, s.power, s.timing, cfg);
  cfg.join_mode = JoinMode::kMax;
  const ThermalDfa max_dfa(s.grid, s.power, s.timing, cfg);
  const auto r_mean = mean_dfa.analyze_post_ra(alloc.func, alloc.assignment);
  const auto r_max = max_dfa.analyze_post_ra(alloc.func, alloc.assignment);
  for (std::size_t r = 0; r < r_mean.exit_reg_temps_k.size(); ++r) {
    EXPECT_GE(r_max.exit_reg_temps_k[r] + 1e-6, r_mean.exit_reg_temps_k[r]);
  }
  EXPECT_GE(r_max.exit_stats.peak_k, r_mean.exit_stats.peak_k - 1e-6);
}

TEST(JoinModes, StraightLineCodeIsJoinInsensitive) {
  // Without merges, every join operator must produce the same answer.
  Rig s;
  ir::Function f("straight");
  ir::IRBuilder b(f);
  const auto blk = b.create_block();
  b.set_insert_point(blk);
  const ir::Reg x = b.const_int(7);
  const ir::Reg y = b.mul(ir::IRBuilder::r(x), ir::IRBuilder::r(x));
  b.ret(ir::IRBuilder::r(y));
  const auto alloc = allocate(s, f);

  std::vector<std::vector<double>> maps;
  for (JoinMode mode : {JoinMode::kWeightedMean, JoinMode::kUnweightedMean,
                        JoinMode::kMax}) {
    ThermalDfaConfig cfg;
    cfg.join_mode = mode;
    const ThermalDfa dfa(s.grid, s.power, s.timing, cfg);
    maps.push_back(
        dfa.analyze_post_ra(alloc.func, alloc.assignment).exit_reg_temps_k);
  }
  for (std::size_t i = 1; i < maps.size(); ++i) {
    for (std::size_t r = 0; r < maps[0].size(); ++r) {
      EXPECT_NEAR(maps[i][r], maps[0][r], 1e-9);
    }
  }
}

}  // namespace
}  // namespace tadfa::core

// Appended: the analysis against a plain copy of its own loop.
namespace tadfa::core {
namespace {

// Fig. 2 written the plain way: fresh vectors every transfer, and only
// the public register_temps / leakage_power / step. analyze() hoists and
// reuses all of that; not one output bit may move.
ThermalDfaResult reference_analyze(
    const ThermalDfa& dfa, const ir::Function& func,
    const AccessDistributionModel& model,
    const std::optional<std::vector<double>>& profile) {
  const thermal::ThermalGrid& grid = dfa.grid();
  const machine::Floorplan& fp = grid.floorplan();
  const machine::TechnologyParams& tech = fp.config().tech;
  const ThermalDfaConfig& config = dfa.config();
  const std::uint32_t n_phys = fp.num_registers();

  pipeline::AnalysisManager am;
  const dataflow::Cfg& cfg = am.get<dataflow::Cfg>(func);
  std::vector<double> freq;
  if (profile) {
    freq = *profile;
    const double entry_count = std::max(freq[func.entry()], 1.0);
    for (double& f : freq) {
      f = std::max(f / entry_count, 0.0);
    }
  } else {
    freq = pipeline::block_frequencies(am, func, config.trip_count_guess);
  }

  auto instruction_power = [&](const ir::Instruction& inst) {
    std::vector<double> p(n_phys, 0.0);
    const double window_s =
        static_cast<double>(dfa.timing().cycles(inst)) * tech.cycle_seconds();
    auto add = [&](ir::Reg v, double energy) {
      const std::vector<double>& dist = model.distribution(v);
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
  };

  ThermalDfaResult result;
  std::vector<thermal::ThermalState> out_state(func.block_count(),
                                               grid.initial_state());
  const std::vector<ir::InstrRef> all_refs = func.all_instructions();
  std::vector<std::vector<double>> prev_instr_temps(
      all_refs.size(), std::vector<double>(n_phys, grid.substrate_temp()));
  std::vector<std::vector<double>> cur_instr_temps = prev_instr_temps;
  std::vector<std::size_t> block_first(func.block_count(), 0);
  std::size_t first = 0;
  for (const ir::BasicBlock& b : func.blocks()) {
    block_first[b.id()] = first;
    first += b.size();
  }

  bool stop = false;
  while (!stop && result.iterations < config.max_iterations) {
    stop = true;
    ++result.iterations;
    double iteration_delta = 0.0;
    for (ir::BlockId b : cfg.reverse_post_order()) {
      if (!cfg.reachable(b)) {
        continue;
      }
      thermal::ThermalState state = grid.initial_state();
      const auto& preds = cfg.predecessors(b);
      const bool include_boundary = b == func.entry();
      if (!preds.empty() || include_boundary) {
        const std::size_t nodes = state.node_temps.size();
        if (config.join_mode == JoinMode::kMax) {
          for (std::size_t n = 0; n < nodes; ++n) {
            double worst = state.node_temps[n];
            for (ir::BlockId p : preds) {
              worst = std::max(worst, out_state[p].node_temps[n]);
            }
            state.node_temps[n] = worst;
          }
        } else {
          double weight_sum = include_boundary ? 1.0 : 0.0;
          std::vector<double> weights(preds.size(), 1.0);
          for (std::size_t pi = 0; pi < preds.size(); ++pi) {
            if (config.join_mode == JoinMode::kWeightedMean) {
              weights[pi] = std::max(freq[preds[pi]], 1e-12);
            }
            weight_sum += weights[pi];
          }
          if (weight_sum > 0.0) {
            for (std::size_t n = 0; n < nodes; ++n) {
              double acc = include_boundary ? grid.substrate_temp() : 0.0;
              for (std::size_t pi = 0; pi < preds.size(); ++pi) {
                acc += weights[pi] * out_state[preds[pi]].node_temps[n];
              }
              state.node_temps[n] = acc / weight_sum;
            }
          }
        }
      }
      const ir::BasicBlock& block = func.block(b);
      const double block_freq = std::max(freq[b], 1e-12);
      for (std::uint32_t i = 0; i < block.size(); ++i) {
        const ir::Instruction& inst = block.instructions()[i];
        std::vector<double> p = instruction_power(inst);
        if (config.include_leakage) {
          const auto temps = grid.register_temps(state);
          const auto leak = dfa.power_model().leakage_power(fp, temps);
          for (std::uint32_t r = 0; r < n_phys; ++r) {
            p[r] += leak[r];
          }
        }
        const double dt = static_cast<double>(dfa.timing().cycles(inst)) *
                          tech.cycle_seconds() * block_freq;
        grid.step(state, p, dt);
        const std::size_t dense = block_first[b] + i;
        cur_instr_temps[dense] = grid.register_temps(state);
        double change = 0.0;
        for (std::uint32_t r = 0; r < n_phys; ++r) {
          change = std::max(change, std::abs(cur_instr_temps[dense][r] -
                                             prev_instr_temps[dense][r]));
        }
        iteration_delta = std::max(iteration_delta, change);
        if (change > config.delta_k) {
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

  for (std::size_t i = 0; i < all_refs.size(); ++i) {
    InstructionThermal it;
    it.ref = all_refs[i];
    it.reg_temps_k = prev_instr_temps[i];
    it.peak_k = it.reg_temps_k.empty()
                    ? grid.substrate_temp()
                    : *std::max_element(it.reg_temps_k.begin(),
                                        it.reg_temps_k.end());
    result.peak_anywhere_k = std::max(result.peak_anywhere_k, it.peak_k);
    result.per_instruction.push_back(std::move(it));
  }
  std::vector<double> exit_temps(n_phys, grid.substrate_temp());
  double w_sum = 0.0;
  std::vector<double> acc(n_phys, 0.0);
  for (const ir::BasicBlock& b : func.blocks()) {
    if (!cfg.reachable(b.id()) || !b.has_terminator() ||
        b.terminator().opcode() != ir::Opcode::kRet) {
      continue;
    }
    const double w = std::max(freq[b.id()], 1e-12);
    const auto temps = grid.register_temps(out_state[b.id()]);
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
  return result;
}

/// Digest of the bits of every result field but analysis_seconds.
std::uint64_t result_bits(const ThermalDfaResult& r) {
  Hasher h;
  h.mix(std::uint64_t{r.converged});
  h.mix(static_cast<std::uint64_t>(r.iterations));
  const thermal::MapStats& s = r.exit_stats;
  for (double v : {r.final_delta_k, r.peak_anywhere_k, s.peak_k, s.min_k,
                   s.mean_k, s.stddev_k, s.range_k, s.max_gradient_k,
                   s.mean_gradient_k}) {
    h.mix(v);
  }
  for (const InstructionThermal& it : r.per_instruction) {
    h.mix(std::uint64_t{it.ref.block});
    h.mix(std::uint64_t{it.ref.index});
    h.mix(it.peak_k);
    for (double t : it.reg_temps_k) {
      h.mix(t);
    }
  }
  for (double t : r.exit_reg_temps_k) {
    h.mix(t);
  }
  for (double d : r.delta_history_k) {
    h.mix(d);
  }
  return h.digest();
}

/// A texpr function of `depth` nested while loops, each running n trips.
std::string texpr_nest(int depth) {
  std::string src = "fn nest" + std::to_string(depth) + "(n) {\n";
  src += "  let acc = 0;\n";
  for (int l = 0; l < depth; ++l) {
    src += "  let i" + std::to_string(l) + " = 0;\n";
  }
  std::string indent = "  ";
  for (int l = 0; l < depth; ++l) {
    const std::string i = "i" + std::to_string(l);
    src += indent + i + " = 0;\n";
    src += indent + "while (" + i + " < n) {\n";
    indent += "  ";
  }
  src += indent + "acc = acc + i0 * i" + std::to_string(depth - 1) + " + 1;\n";
  for (int l = depth - 1; l >= 0; --l) {
    const std::string i = "i" + std::to_string(l);
    src += indent + i + " = " + i + " + 1;\n";
    indent.resize(indent.size() - 2);
    src += indent + "}\n";
  }
  return src + "  return acc;\n}\n";
}

TEST(ThermalDfa, MatchesReferenceLoopBitForBit) {
  std::vector<ir::Function> funcs;
  {
    auto mixed =
        frontend::find_frontend("kernels")->parse("mixed:functions=8,seed=7");
    ASSERT_TRUE(mixed.ok()) << mixed.diagnostics_text();
    // The carry rule's corners: the entry block is a loop target (the
    // boundary and a predecessor are joined), and an unreachable block
    // that never runs jumps into a reachable one.
    auto corners = frontend::find_frontend("tir")->parse(
        "func @g(%0) {\nentry:\n  %1 = const 1\n  %0 = sub %0, %1\n"
        "  br %0, entry, out\ndead:\n  jmp out\nout:\n  ret %0\n}\n");
    ASSERT_TRUE(corners.ok()) << corners.diagnostics_text();
    auto nests =
        frontend::find_frontend("texpr")->parse(texpr_nest(3) + texpr_nest(5));
    ASSERT_TRUE(nests.ok()) << nests.diagnostics_text();
    for (auto* m : {&*mixed.module, &*corners.module, &*nests.module}) {
      for (const ir::Function& f : m->functions()) {
        funcs.push_back(f);
      }
    }
  }
  const machine::TimingModel timing;
  std::size_t compared = 0;
  for (const char* machine_name : {"default", "small", "dense45"}) {
    const machine::MachineConfig* mc = machine::find_machine(machine_name);
    ASSERT_NE(mc, nullptr) << machine_name;
    const machine::Floorplan fp(mc->rf);
    const power::PowerModel power(fp.config());
    auto policy = regalloc::make_policy("first_free");
    regalloc::LinearScanAllocator allocator(fp, *policy);
    for (unsigned sub : {1u, 2u}) {
      const thermal::ThermalGrid grid(fp, sub);
      for (const ir::Function& f : funcs) {
        SCOPED_TRACE(std::string(machine_name) + " sub=" +
                     std::to_string(sub) + " " + f.name());
        const auto alloc = allocator.allocate(f);
        const dataflow::Cfg cfg(alloc.func);
        const dataflow::Liveness lv(cfg);
        const ExactAssignmentModel exact(alloc.func, fp, alloc.assignment);
        const FirstFitPredictionModel first_fit(alloc.func, fp,
                                                lv.max_pressure());
        const UniformPredictionModel uniform(alloc.func, fp);
        auto check = [&](const AccessDistributionModel& model,
                         ThermalDfaConfig config) {
          SCOPED_TRACE(model.name() + " join=" +
                       std::to_string(static_cast<int>(config.join_mode)) +
                       " leakage=" + std::to_string(config.include_leakage));
          const ThermalDfa dfa(grid, power, timing, config);
          EXPECT_EQ(result_bits(dfa.analyze(alloc.func, model)),
                    result_bits(reference_analyze(dfa, alloc.func, model, {})));
          ++compared;
        };
        if (sub > 1) {
          // The join, leakage and model paths do not depend on the
          // subdivision; the finer grid runs the default configuration.
          check(exact, {});
          continue;
        }
        for (JoinMode join : {JoinMode::kWeightedMean,
                              JoinMode::kUnweightedMean, JoinMode::kMax}) {
          for (bool leakage : {true, false}) {
            ThermalDfaConfig config;
            config.join_mode = join;
            config.include_leakage = leakage;
            check(exact, config);
          }
        }
        check(first_fit, {});
        check(uniform, {});
      }
      // One profiled run: the 3-deep nest's measured block counts.
      SCOPED_TRACE(std::string(machine_name) + " sub=" +
                   std::to_string(sub) + " profiled");
      const auto alloc = allocator.allocate(funcs[funcs.size() - 2]);
      sim::Interpreter interp(alloc.func, timing);
      const std::int64_t trips = 4;
      const auto run = interp.run(std::span(&trips, 1));
      ASSERT_TRUE(run.ok());
      const std::vector<double> profile(run.block_visits.begin(),
                                        run.block_visits.end());
      const ExactAssignmentModel exact(alloc.func, fp, alloc.assignment);
      ThermalDfa dfa(grid, power, timing);
      dfa.set_block_profile(profile);
      EXPECT_EQ(
          result_bits(dfa.analyze(alloc.func, exact)),
          result_bits(reference_analyze(dfa, alloc.func, exact, profile)));
    }
  }
  EXPECT_EQ(compared, 3u * funcs.size() * (8u + 1u));
}

/// The ifunc clone of the DFA's hot loops that this process runs.
std::string dispatched_clone() {
#if TADFA_HAS_TARGET_CLONES
  if (__builtin_cpu_supports("x86-64-v4")) {
    return "x86-64-v4";
  }
  if (__builtin_cpu_supports("x86-64-v3")) {
    return "x86-64-v3";
  }
  return "default";
#else
  return "none (built without clones)";
#endif
}

TEST(ThermalDfa, KeepsRecordedBitsOnDispatchedClone) {
  // MatchesReferenceLoopBitForBit builds its reference from the same
  // dispatched loops, so it cannot tell an AVX-512 or AVX2 clone from
  // the baseline one. These digests of analyze()'s result bits (every
  // per-instruction temperature, the exit temperatures, the δ history,
  // the iteration count and the rest of result_bits) were recorded by a
  // baseline x86-64 build before the loops had clones; every clone must
  // give them. Only functions whose windows all stay below step()'s modal
  // cutoff (max(64, node rows + node cols) substeps) are digested, so no
  // bit comes from libm's pow or cos, which glibc picks per host.
#if !defined(__x86_64__)
  GTEST_SKIP() << "literals recorded on x86-64";
#endif
  RecordProperty("dispatched_clone", dispatched_clone());
  auto parsed =
      frontend::find_frontend("kernels")->parse("mixed:functions=8,seed=7");
  ASSERT_TRUE(parsed.ok()) << parsed.diagnostics_text();
  const machine::MachineConfig* mc = machine::find_machine("default");
  ASSERT_NE(mc, nullptr);
  const machine::Floorplan fp(mc->rf);
  const power::PowerModel power(fp.config());
  const machine::TimingModel timing;
  auto policy = regalloc::make_policy("first_free");
  regalloc::LinearScanAllocator allocator(fp, *policy);
  // {subdivision, digest, functions digested}. At s = 3 one window of
  // matmul_2 takes 159 substeps, past the cutoff of 64, so that function
  // is left out there.
  const std::tuple<unsigned, std::uint64_t, std::size_t> expected[] = {
      {1u, 0xec9fa612f2b1b70full, 8u},
      {3u, 0xbf2d52d808caee99ull, 7u},
  };
  for (const auto& [sub, digest, digested] : expected) {
    const thermal::ThermalGrid grid(fp, sub);
    const ThermalDfa dfa(grid, power, timing);
    const double modal_cutoff = std::max<double>(
        64.0, static_cast<double>((fp.rows() + fp.cols()) * sub));
    Hasher h;
    std::size_t functions = 0;
    for (const ir::Function& f : parsed.module->functions()) {
      const auto alloc = allocator.allocate(f);
      pipeline::AnalysisManager am;
      const std::vector<double>& freq = pipeline::block_frequencies(
          am, alloc.func, dfa.config().trip_count_guess);
      double longest = 0.0;
      for (const ir::BasicBlock& b : alloc.func.blocks()) {
        for (const ir::Instruction& inst : b.instructions()) {
          const double dt = static_cast<double>(timing.cycles(inst)) *
                            fp.config().tech.cycle_seconds() *
                            std::max(freq[b.id()], 1e-12);
          longest = std::max(longest, std::ceil(dt / grid.max_stable_dt()));
        }
      }
      if (longest >= modal_cutoff) {
        continue;
      }
      ++functions;
      h.mix(result_bits(
          dfa.analyze_post_ra(alloc.func, alloc.assignment, am)));
    }
    EXPECT_EQ(functions, digested) << "s=" << sub;
    EXPECT_EQ(h.digest(), digest)
        << "s=" << sub << " digest 0x" << std::hex << h.digest();
  }
}

}  // namespace
}  // namespace tadfa::core
