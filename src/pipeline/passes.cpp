// Builtin passes: thin adapters from the free functions in src/opt and
// the allocators in src/regalloc onto the uniform Pass interface.
//
// Vocabulary (the spec string grammar is in pipeline/spec.hpp):
//
//   cse                       local common-subexpression elimination
//   dce                       dead code elimination
//   coalesce                  copy coalescing
//   promote[=min_loads]       register promotion of memory scalars
//   alloc=kind[:policy[:seed]] register allocation (linear|coloring x any
//                             regalloc policy; heat-guided when a
//                             thermal-dfa result is available)
//   thermal-dfa               post-RA thermal DFA + critical-var ranking
//   split-hot[=n]             split the n most critical live ranges
//   spill-critical[=n]        spill the n most critical variables
//   reassign                  thermally-guided coolest-first re-allocation
//   schedule                  thermal-aware list scheduling
//   nops[=per_site[:threshold_k]]  cooling NOPs after hot instructions
//   bank-gating[=temp_k]      plan power-gating of empty banks
//   verify                    explicit structural + coverage checkpoint
//
// Every pass pulls derived analyses through state.analyses (the
// AnalysisManager) and reports what it kept valid via
// PassOutcome::preserved. The rule of thumb: nothing in src/opt touches
// block structure, so structure-class analyses (Cfg, Dominators,
// LoopInfo, block frequencies) survive every rewrite; liveness-class
// analyses survive only passes that did not touch the instruction stream.
#include <algorithm>
#include <memory>
#include <sstream>

#include "core/critical.hpp"
#include "opt/bank_gating.hpp"
#include "opt/coalesce.hpp"
#include "opt/cse.hpp"
#include "opt/dce.hpp"
#include "opt/nop_insert.hpp"
#include "opt/promote.hpp"
#include "opt/reassign.hpp"
#include "opt/schedule.hpp"
#include "opt/spill_critical.hpp"
#include "opt/split.hpp"
#include "pipeline/registry.hpp"
#include "regalloc/allocator.hpp"
#include "regalloc/verify.hpp"
#include "support/string_utils.hpp"

namespace tadfa::pipeline {

namespace {

std::unique_ptr<Pass> fail(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
  return nullptr;
}

bool parse_count(const std::string& s, std::size_t& out) {
  long long v = 0;
  if (!parse_int(s, v) || v < 1) {
    return false;
  }
  out = static_cast<std::size_t>(v);
  return true;
}

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(4);
  os << v;
  return os.str();
}

// --- Pure IR rewrites --------------------------------------------------------

/// Wraps a copy-based rewrite (cse, promote): on change, the structure
/// survives but liveness and every registered artifact is stale — exactly
/// the old invalidate_derived(), minus the structure-class analyses.
template <typename RunFn>
std::unique_ptr<Pass> make_rewrite_pass(const std::string& name, RunFn fn) {
  return std::make_unique<LambdaPass>(
      name, [fn](PipelineState& state, const PipelineContext&) {
        auto [func, count, summary] = fn(state.func);
        if (count == 0) {
          return PassOutcome::unchanged(summary);
        }
        state.func = std::move(func);
        return PassOutcome::success(summary).preserve(
            PreservedAnalyses::structure());
      });
}

// --- alloc=kind[:policy[:seed]] ---------------------------------------------

class AllocPass final : public Pass {
 public:
  AllocPass(std::string kind, std::string policy,
            std::optional<std::uint64_t> seed)
      : kind_(std::move(kind)), policy_(std::move(policy)), seed_(seed) {}

  std::string name() const override {
    return "alloc=" + kind_ + ":" + policy_;
  }

  PassOutcome run(PipelineState& state, const PipelineContext& ctx) override {
    const std::uint64_t seed = seed_.value_or(ctx.policy_seed);
    auto policy = regalloc::make_policy(policy_, seed);
    if (policy == nullptr) {
      return PassOutcome::failure("unknown policy '" + policy_ + "'");
    }
    auto allocator =
        regalloc::make_allocator(kind_, *ctx.floorplan, *policy);
    if (allocator == nullptr) {
      return PassOutcome::failure("unknown allocator '" + kind_ + "'");
    }
    const auto* dfa = state.dfa();
    const bool heat_guided = dfa != nullptr;
    if (heat_guided) {
      allocator->set_heat_scores(dfa->exit_reg_temps_k);
    }
    auto result = allocator->allocate(state.func);
    const bool rewrote_ir = result.spilled_regs > 0;
    state.func = std::move(result.func);
    state.analyses.put<machine::RegisterAssignment>(
        std::move(result.assignment));
    state.spilled_regs += result.spilled_regs;
    if (rewrote_ir) {
      if (auto* stale = state.analyses.result_mut<core::ThermalDfaResult>()) {
        // Spill rewriting shifted instruction indices: the exit
        // temperatures stay useful guidance, the per-instruction states
        // do not (same contract as split-hot / spill-critical).
        stale->per_instruction.clear();
      }
    }

    std::ostringstream summary;
    summary << kind_ << "/" << policy_ << " rounds=" << result.rounds
            << " spilled=" << result.spilled_regs
            << (heat_guided ? " heat-guided" : "");
    // The DFA's exit temperatures and the ranking stay useful guidance
    // across re-allocation (the gating plan does not — it is keyed to the
    // replaced assignment). Spill-free allocation leaves the IR byte
    // identical, so liveness survives too.
    PreservedAnalyses preserved = PreservedAnalyses::structure();
    preserved.preserve<core::ThermalDfaResult>().preserve<CriticalRanking>();
    if (!rewrote_ir) {
      preserved.preserve<dataflow::Liveness>()
          .preserve<dataflow::LiveIntervals>()
          .preserve<dataflow::InterferenceGraph>();
    }
    return PassOutcome::success(summary.str()).preserve(preserved);
  }

 private:
  std::string kind_;
  std::string policy_;
  std::optional<std::uint64_t> seed_;
};

std::unique_ptr<Pass> make_alloc_pass(const PassSpec& spec,
                                      std::string* error) {
  if (spec.args.empty() || spec.args.size() > 3) {
    return fail(error, "alloc takes kind[:policy[:seed]]");
  }
  const std::string& kind = spec.args[0];
  const auto kinds = regalloc::all_allocator_kinds();
  if (std::find(kinds.begin(), kinds.end(), kind) == kinds.end()) {
    return fail(error, "unknown allocator '" + kind + "'");
  }
  const std::string policy =
      spec.args.size() > 1 ? spec.args[1] : "first_free";
  if (regalloc::make_policy(policy) == nullptr) {
    return fail(error, "unknown policy '" + policy + "'");
  }
  std::optional<std::uint64_t> seed;
  if (spec.args.size() > 2) {
    long long v = 0;
    if (!parse_int(spec.args[2], v) || v < 0) {
      return fail(error, "bad alloc seed '" + spec.args[2] + "'");
    }
    seed = static_cast<std::uint64_t>(v);
  }
  return std::make_unique<AllocPass>(kind, policy, seed);
}

// --- thermal-dfa -------------------------------------------------------------

PassOutcome run_thermal_dfa(PipelineState& state, const PipelineContext& ctx) {
  if (!state.has_assignment()) {
    return PassOutcome::failure(
        "thermal-dfa requires an assignment (run an alloc pass first)");
  }
  // Always recompute: a cached result may have survived IR reshapes as
  // exit-temperature guidance with its per-instruction states cleared.
  state.analyses.invalidate<core::ThermalDfaResult>();
  const core::ThermalDfaResult& dfa =
      state.analyses.get<core::ThermalDfaResult>(state.func, ctx);
  const core::ExactAssignmentModel model(state.func, *ctx.floorplan,
                                         *state.assignment());
  CriticalRanking ranking;
  ranking.vars = core::rank_critical_variables(
      state.func, model, dfa, *ctx.grid, ctx.timing,
      ctx.dfa_config.trip_count_guess, state.analyses);

  std::ostringstream summary;
  summary << dfa.iterations << " iters, "
          << (dfa.converged ? "converged" : "NOT converged")
          << ", predicted peak " << fmt(dfa.exit_stats.peak_k - 273.15)
          << " degC, critical:";
  for (std::size_t i = 0; i < std::min<std::size_t>(3, ranking.vars.size());
       ++i) {
    summary << " %" << ranking.vars[i].vreg;
  }
  state.analyses.put<CriticalRanking>(std::move(ranking));
  return PassOutcome::unchanged(summary.str());
}

// --- split-hot[=n] / spill-critical[=n] -------------------------------------

/// The PreservedAnalyses both critical-variable transforms share: block
/// structure and the (deliberately approximate) exit-temperature guidance
/// survive; the assignment, gating plan, and liveness-class analyses die.
PreservedAnalyses critical_transform_preserved() {
  PreservedAnalyses preserved = PreservedAnalyses::structure();
  preserved.preserve<core::ThermalDfaResult>().preserve<CriticalRanking>();
  return preserved;
}

PassOutcome run_split_hot(PipelineState& state, std::size_t count) {
  auto* ranking = state.analyses.result_mut<CriticalRanking>();
  if (ranking == nullptr) {
    return PassOutcome::failure(
        "split-hot requires a critical-variable ranking (run thermal-dfa "
        "first)");
  }
  if (ranking->vars.empty()) {
    return PassOutcome::unchanged("no critical variables");
  }
  const std::size_t n = std::min(count, ranking->vars.size());
  std::vector<ir::Reg> regs;
  std::ostringstream summary;
  summary << "split";
  for (std::size_t i = 0; i < n; ++i) {
    regs.push_back(ranking->vars[i].vreg);
    summary << " %" << ranking->vars[i].vreg;
  }
  const auto result = opt::split_live_ranges(state.func, regs, state.analyses);
  // The split variables are handled; a later spill-critical starts at the
  // next-most-critical survivor.
  ranking->vars.erase(ranking->vars.begin(),
                      ranking->vars.begin() + static_cast<std::ptrdiff_t>(n));
  if (auto* dfa = state.analyses.result_mut<core::ThermalDfaResult>()) {
    // The per-register exit temperatures stay valid guidance for the next
    // allocation, but the per-instruction states index the pre-split
    // function — drop them so `nops` cannot consume stale refs.
    dfa->per_instruction.clear();
  }
  summary << " (copies=" << result.copies.size()
          << ", uses=" << result.rewritten_uses << ")";
  return PassOutcome::success(summary.str())
      .preserve(critical_transform_preserved());
}

PassOutcome run_spill_critical(PipelineState& state, std::size_t count) {
  auto* ranking = state.analyses.result_mut<CriticalRanking>();
  if (ranking == nullptr) {
    return PassOutcome::failure(
        "spill-critical requires a critical-variable ranking (run "
        "thermal-dfa first)");
  }
  if (ranking->vars.empty()) {
    return PassOutcome::unchanged("no critical variables");
  }
  const auto result =
      opt::spill_critical_variables(state.func, ranking->vars, count);
  state.func = result.func;
  std::erase_if(ranking->vars, [&](const core::CriticalVariable& v) {
    return std::find(result.spilled.begin(), result.spilled.end(), v.vreg) !=
           result.spilled.end();
  });
  if (auto* dfa = state.analyses.result_mut<core::ThermalDfaResult>()) {
    // Same rationale as split-hot: spill reloads reshape the instruction
    // stream, staling the per-instruction states but not the per-register
    // exit temperatures.
    dfa->per_instruction.clear();
  }
  std::ostringstream summary;
  summary << "spilled " << result.spilled.size() << " vars, +"
          << result.inserted_instructions << " instrs";
  return PassOutcome::success(summary.str())
      .preserve(critical_transform_preserved());
}

// --- reassign ----------------------------------------------------------------

PassOutcome run_reassign(PipelineState& state, const PipelineContext& ctx) {
  if (!state.has_assignment()) {
    return PassOutcome::failure(
        "reassign requires an assignment (run an alloc pass first)");
  }
  regalloc::AllocationResult initial;
  initial.func = state.func;
  initial.assignment = *state.assignment();
  const core::ThermalDfa dfa(*ctx.grid, *ctx.power, ctx.timing,
                             ctx.dfa_config);
  auto result = opt::thermally_reassign(state.func, initial, dfa);
  state.func = std::move(result.alloc.func);
  state.analyses.put<machine::RegisterAssignment>(
      std::move(result.alloc.assignment));
  state.spilled_regs += result.alloc.spilled_regs;
  std::ostringstream summary;
  summary << "predicted peak " << fmt(result.predicted_before.peak_k - 273.15)
          << " -> " << fmt(result.predicted_after.peak_k - 273.15) << " degC";
  // The ranking still names the hottest variables; the pre-reassign DFA
  // prediction and gating plan do not survive the new placement.
  PreservedAnalyses preserved = PreservedAnalyses::structure();
  preserved.preserve<CriticalRanking>();
  return PassOutcome::success(summary.str()).preserve(preserved);
}

// --- schedule ----------------------------------------------------------------

PassOutcome run_schedule(PipelineState& state, const PipelineContext&) {
  if (!state.has_assignment()) {
    return PassOutcome::failure(
        "schedule requires an assignment (run an alloc pass first)");
  }
  auto result = opt::thermal_schedule(state.func, *state.assignment());
  state.func = std::move(result.func);
  // Instruction positions changed: the per-instruction DFA states and the
  // ranking are stale, the assignment (keyed by vreg) is not.
  PreservedAnalyses preserved = PreservedAnalyses::structure();
  preserved.preserve<machine::RegisterAssignment>()
      .preserve<opt::BankGatingPlan>();
  return PassOutcome::success("moved " + std::to_string(result.moved))
      .preserve(preserved);
}

// --- nops[=per_site[:threshold_k]] ------------------------------------------

// A served request carries its own spec, and each hot site grows the
// function by per_site instructions, so the count is bounded at the seam.
constexpr int kMaxNopsPerSite = 64;

PassOutcome run_nops(PipelineState& state, int per_site,
                     std::optional<double> threshold_k) {
  const auto* dfa = state.dfa();
  if (dfa == nullptr || dfa->per_instruction.empty()) {
    return PassOutcome::failure(
        "nops requires a thermal-dfa result over the current function "
        "(re-run thermal-dfa after any IR-reshaping pass)");
  }
  if (!state.has_assignment()) {
    return PassOutcome::failure(
        "nops requires an assignment (run an alloc pass first)");
  }
  const double threshold =
      threshold_k.value_or(opt::default_cooling_threshold(*dfa));
  auto result =
      opt::insert_cooling_nops(state.func, *dfa, threshold, per_site);
  state.func = std::move(result.func);
  // NOPs touch no registers (assignment survives) but shift instruction
  // indices (the DFA's per-instruction refs do not).
  PreservedAnalyses preserved = PreservedAnalyses::structure();
  preserved.preserve<machine::RegisterAssignment>()
      .preserve<opt::BankGatingPlan>();
  return PassOutcome::success(
             "inserted " + std::to_string(result.nops_inserted) +
             " (threshold " + fmt(threshold - 273.15) + " degC)")
      .preserve(preserved);
}

// --- bank-gating[=temp_k] ----------------------------------------------------

PassOutcome run_bank_gating(PipelineState& state, const PipelineContext& ctx,
                            std::optional<double> temp_k) {
  if (!state.has_assignment()) {
    return PassOutcome::failure(
        "bank-gating requires an assignment (run an alloc pass first)");
  }
  const auto* dfa = state.dfa();
  const double temp = temp_k.value_or(
      dfa != nullptr ? dfa->exit_stats.mean_k
                     : ctx.floorplan->config().tech.substrate_temp_k);
  opt::BankGatingPlan plan =
      opt::plan_bank_gating(*ctx.floorplan, *state.assignment(), temp);
  std::ostringstream summary;
  summary << "gated " << plan.gated_banks << " banks, "
          << fmt(plan.leakage_saved_w * 1e3) << " mW leakage saved";
  state.analyses.put<opt::BankGatingPlan>(std::move(plan));
  return PassOutcome::unchanged(summary.str());
}

// --- verify ------------------------------------------------------------------

PassOutcome run_verify(PipelineState& state, const PipelineContext&) {
  if (std::string issue = verify_checkpoint(state); !issue.empty()) {
    return PassOutcome::failure(issue);
  }
  if (state.has_assignment()) {
    // Full legality (interference) check, sharing the cached graph.
    const auto issues = regalloc::verify_allocation(
        state.func, *state.assignment(), state.analyses);
    if (!issues.empty()) {
      return PassOutcome::failure(issues.front().message);
    }
  }
  return PassOutcome::unchanged("ok");
}

}  // namespace

void register_builtin_passes(PassRegistry& registry) {
  registry.register_pass(
      "cse", "local common-subexpression elimination",
      [](const PassSpec& spec, std::string* error) -> std::unique_ptr<Pass> {
        if (!spec.args.empty()) {
          return fail(error, "cse takes no arguments");
        }
        return make_rewrite_pass("cse", [](const ir::Function& func) {
          auto r = opt::eliminate_common_subexpressions(func);
          return std::tuple{std::move(r.func), r.replaced,
                            "replaced " + std::to_string(r.replaced)};
        });
      });

  registry.register_pass(
      "dce", "dead code elimination",
      [](const PassSpec& spec, std::string* error) -> std::unique_ptr<Pass> {
        if (!spec.args.empty()) {
          return fail(error, "dce takes no arguments");
        }
        return std::make_unique<LambdaPass>(
            "dce", [](PipelineState& state, const PipelineContext&) {
              const std::size_t removed =
                  opt::eliminate_dead_code(state.func, state.analyses);
              const std::string summary =
                  "removed " + std::to_string(removed);
              if (removed == 0) {
                return PassOutcome::unchanged(summary);
              }
              // The in-place DCE invalidated liveness through the manager
              // as it rewrote; the final sweep's analyses are fresh and
              // survive on their own.
              return PassOutcome::success(summary).preserve(
                  PreservedAnalyses::structure());
            });
      });

  registry.register_pass(
      "coalesce", "copy coalescing",
      [](const PassSpec& spec, std::string* error) -> std::unique_ptr<Pass> {
        if (!spec.args.empty()) {
          return fail(error, "coalesce takes no arguments");
        }
        return std::make_unique<LambdaPass>(
            "coalesce", [](PipelineState& state, const PipelineContext&) {
              const std::size_t merged =
                  opt::coalesce_copies(state.func, state.analyses);
              const std::string summary =
                  "coalesced " + std::to_string(merged);
              if (merged == 0) {
                return PassOutcome::unchanged(summary);
              }
              return PassOutcome::success(summary).preserve(
                  PreservedAnalyses::structure());
            });
      });

  registry.register_pass(
      "promote", "promote[=min_loads]: memory scalars into registers",
      [](const PassSpec& spec, std::string* error) -> std::unique_ptr<Pass> {
        std::size_t min_loads = 2;
        if (spec.args.size() > 1 ||
            (spec.args.size() == 1 && !parse_count(spec.args[0], min_loads))) {
          return fail(error, "promote takes an optional positive min_loads");
        }
        return make_rewrite_pass(
            spec.text(), [min_loads](const ir::Function& func) {
              auto r = opt::promote_memory_scalars(func, min_loads);
              return std::tuple{
                  std::move(r.func),
                  r.promoted_addresses.size() + r.loads_replaced,
                  "promoted " + std::to_string(r.promoted_addresses.size()) +
                      " addrs, " + std::to_string(r.loads_replaced) +
                      " loads"};
            });
      });

  registry.register_pass(
      "alloc",
      "alloc=kind[:policy[:seed]]: register allocation "
      "(linear|coloring; any regalloc policy)",
      make_alloc_pass);

  registry.register_pass(
      "thermal-dfa",
      "post-RA thermal data-flow analysis + critical-variable ranking",
      [](const PassSpec& spec, std::string* error) -> std::unique_ptr<Pass> {
        if (!spec.args.empty()) {
          return fail(error, "thermal-dfa takes no arguments");
        }
        return std::make_unique<LambdaPass>("thermal-dfa", run_thermal_dfa);
      });

  registry.register_pass(
      "split-hot", "split-hot[=n]: split the n most critical live ranges",
      [](const PassSpec& spec, std::string* error) -> std::unique_ptr<Pass> {
        std::size_t count = 1;
        if (spec.args.size() > 1 ||
            (spec.args.size() == 1 && !parse_count(spec.args[0], count))) {
          return fail(error, "split-hot takes an optional positive count");
        }
        return std::make_unique<LambdaPass>(
            spec.text(), [count](PipelineState& state, const PipelineContext&) {
              return run_split_hot(state, count);
            });
      });

  registry.register_pass(
      "spill-critical",
      "spill-critical[=n]: spill the n most critical variables",
      [](const PassSpec& spec, std::string* error) -> std::unique_ptr<Pass> {
        std::size_t count = 1;
        if (spec.args.size() > 1 ||
            (spec.args.size() == 1 && !parse_count(spec.args[0], count))) {
          return fail(error,
                      "spill-critical takes an optional positive count");
        }
        return std::make_unique<LambdaPass>(
            spec.text(), [count](PipelineState& state, const PipelineContext&) {
              return run_spill_critical(state, count);
            });
      });

  registry.register_pass(
      "reassign", "thermally-guided coolest-first re-allocation",
      [](const PassSpec& spec, std::string* error) -> std::unique_ptr<Pass> {
        if (!spec.args.empty()) {
          return fail(error, "reassign takes no arguments");
        }
        return std::make_unique<LambdaPass>("reassign", run_reassign);
      });

  registry.register_pass(
      "schedule", "thermal-aware list scheduling",
      [](const PassSpec& spec, std::string* error) -> std::unique_ptr<Pass> {
        if (!spec.args.empty()) {
          return fail(error, "schedule takes no arguments");
        }
        return std::make_unique<LambdaPass>("schedule", run_schedule);
      });

  registry.register_pass(
      "nops",
      "nops[=per_site[:threshold_k]]: cooling NOPs after hot instructions "
      "(per_site 1-64)",
      [](const PassSpec& spec, std::string* error) -> std::unique_ptr<Pass> {
        int per_site = 4;
        std::optional<double> threshold_k;
        if (spec.args.size() > 2) {
          return fail(error, "nops takes per_site[:threshold_k]");
        }
        if (!spec.args.empty()) {
          std::size_t n = 0;
          if (!parse_count(spec.args[0], n) || n > kMaxNopsPerSite) {
            return fail(error, "bad nops per_site '" + spec.args[0] + "'");
          }
          per_site = static_cast<int>(n);
        }
        if (spec.args.size() == 2) {
          double t = 0;
          if (!parse_double(spec.args[1], t)) {
            return fail(error, "bad nops threshold '" + spec.args[1] + "'");
          }
          threshold_k = t;
        }
        return std::make_unique<LambdaPass>(
            spec.text(),
            [per_site, threshold_k](PipelineState& state,
                                    const PipelineContext&) {
              return run_nops(state, per_site, threshold_k);
            });
      });

  registry.register_pass(
      "bank-gating", "bank-gating[=temp_k]: plan power-gating of empty banks",
      [](const PassSpec& spec, std::string* error) -> std::unique_ptr<Pass> {
        std::optional<double> temp_k;
        if (spec.args.size() > 1) {
          return fail(error, "bank-gating takes an optional temp_k");
        }
        if (spec.args.size() == 1) {
          double t = 0;
          if (!parse_double(spec.args[0], t)) {
            return fail(error,
                        "bad bank-gating temp '" + spec.args[0] + "'");
          }
          temp_k = t;
        }
        return std::make_unique<LambdaPass>(
            spec.text(),
            [temp_k](PipelineState& state, const PipelineContext& ctx) {
              return run_bank_gating(state, ctx, temp_k);
            });
      });

  registry.register_pass(
      "verify", "explicit structural + assignment-legality checkpoint",
      [](const PassSpec& spec, std::string* error) -> std::unique_ptr<Pass> {
        if (!spec.args.empty()) {
          return fail(error, "verify takes no arguments");
        }
        return std::make_unique<LambdaPass>("verify", run_verify);
      });
}

}  // namespace tadfa::pipeline
