#include "pipeline/state.hpp"

#include "ir/parser.hpp"
#include "ir/printer.hpp"

namespace tadfa::pipeline {

void serialize_dfa(ByteWriter& w, const core::ThermalDfaResult& dfa) {
  w.boolean(dfa.converged);
  w.u32(static_cast<std::uint32_t>(dfa.iterations));
  w.f64(dfa.final_delta_k);
  w.u64(dfa.per_instruction.size());
  for (const core::InstructionThermal& it : dfa.per_instruction) {
    w.u32(it.ref.block);
    w.u32(it.ref.index);
    w.u64(it.reg_temps_k.size());
    for (double temp : it.reg_temps_k) {
      w.f64(temp);
    }
    w.f64(it.peak_k);
  }
  w.u64(dfa.exit_reg_temps_k.size());
  for (double temp : dfa.exit_reg_temps_k) {
    w.f64(temp);
  }
  w.f64(dfa.exit_stats.peak_k);
  w.f64(dfa.exit_stats.min_k);
  w.f64(dfa.exit_stats.mean_k);
  w.f64(dfa.exit_stats.stddev_k);
  w.f64(dfa.exit_stats.range_k);
  w.f64(dfa.exit_stats.max_gradient_k);
  w.f64(dfa.exit_stats.mean_gradient_k);
  w.f64(dfa.peak_anywhere_k);
  w.f64(dfa.analysis_seconds);
  w.u64(dfa.delta_history_k.size());
  for (double delta : dfa.delta_history_k) {
    w.f64(delta);
  }
}

core::ThermalDfaResult deserialize_dfa(ByteReader& r) {
  core::ThermalDfaResult dfa;
  dfa.converged = r.boolean();
  dfa.iterations = static_cast<int>(r.u32());
  dfa.final_delta_k = r.f64();
  const std::uint64_t num_instrs = r.u64();
  for (std::uint64_t i = 0; i < num_instrs && r.ok(); ++i) {
    core::InstructionThermal it;
    it.ref.block = r.u32();
    it.ref.index = r.u32();
    const std::uint64_t num_temps = r.u64();
    for (std::uint64_t j = 0; j < num_temps && r.ok(); ++j) {
      it.reg_temps_k.push_back(r.f64());
    }
    it.peak_k = r.f64();
    dfa.per_instruction.push_back(std::move(it));
  }
  const std::uint64_t num_exit = r.u64();
  for (std::uint64_t i = 0; i < num_exit && r.ok(); ++i) {
    dfa.exit_reg_temps_k.push_back(r.f64());
  }
  dfa.exit_stats.peak_k = r.f64();
  dfa.exit_stats.min_k = r.f64();
  dfa.exit_stats.mean_k = r.f64();
  dfa.exit_stats.stddev_k = r.f64();
  dfa.exit_stats.range_k = r.f64();
  dfa.exit_stats.max_gradient_k = r.f64();
  dfa.exit_stats.mean_gradient_k = r.f64();
  dfa.peak_anywhere_k = r.f64();
  dfa.analysis_seconds = r.f64();
  const std::uint64_t num_deltas = r.u64();
  for (std::uint64_t i = 0; i < num_deltas && r.ok(); ++i) {
    dfa.delta_history_k.push_back(r.f64());
  }
  return dfa;
}

// --- PipelineSnapshot --------------------------------------------------------

PipelineSnapshot PipelineSnapshot::capture(const PipelineState& state) {
  PipelineSnapshot snap;
  snap.function_text = ir::to_string(state.func);
  snap.reg_count = state.func.reg_count();
  snap.stack_slots = state.func.stack_slot_count();
  snap.spilled_regs = state.spilled_regs;
  snap.function_fingerprint = ir::fingerprint(state.func);
  if (const machine::RegisterAssignment* a = state.assignment()) {
    std::vector<machine::PhysReg> map(a->vreg_count(),
                                      machine::RegisterAssignment::kUnassigned);
    for (ir::Reg v = 0; v < a->vreg_count(); ++v) {
      if (a->assigned(v)) {
        map[v] = a->phys(v);
      }
    }
    snap.assignment = std::move(map);
  }
  if (const core::ThermalDfaResult* dfa = state.dfa()) {
    snap.thermal = *dfa;
  }
  if (const std::vector<core::CriticalVariable>* vars = state.ranking()) {
    snap.ranking = *vars;
  }
  if (const opt::BankGatingPlan* plan = state.gating()) {
    snap.gating = *plan;
  }
  return snap;
}

std::optional<PipelineState> PipelineSnapshot::restore(
    const std::string& function_name) const {
  ir::ParseError error;
  auto func = ir::parse_function(function_text, &error);
  if (!func.has_value()) {
    return std::nullopt;
  }
  func->set_name(function_name);
  func->ensure_regs(reg_count);
  while (func->stack_slot_count() < stack_slots) {
    func->allocate_stack_slot();
  }
  if (ir::fingerprint(*func) != function_fingerprint) {
    return std::nullopt;
  }
  PipelineState state(std::move(*func));
  state.spilled_regs = spilled_regs;
  // Artifacts re-register stat-neutrally: the producing run's counters
  // arrive separately (AnalysisManager::import_stats), so put() here
  // would double them.
  if (assignment.has_value()) {
    const auto n = static_cast<std::uint32_t>(assignment->size());
    machine::RegisterAssignment a(n);
    for (ir::Reg v = 0; v < n; ++v) {
      if ((*assignment)[v] != machine::RegisterAssignment::kUnassigned) {
        a.assign(v, (*assignment)[v]);
      }
    }
    state.analyses.restore(std::move(a));
  }
  if (thermal.has_value()) {
    state.analyses.restore(*thermal);
  }
  if (ranking.has_value()) {
    state.analyses.restore(CriticalRanking{*ranking});
  }
  if (gating.has_value()) {
    state.analyses.restore(*gating);
  }
  return state;
}

void PipelineSnapshot::serialize(ByteWriter& w) const {
  w.str(function_text);
  w.u32(reg_count);
  w.u32(stack_slots);
  w.u32(spilled_regs);
  w.u64(function_fingerprint);
  w.boolean(assignment.has_value());
  if (assignment.has_value()) {
    w.u64(assignment->size());
    for (machine::PhysReg p : *assignment) {
      w.u32(p);
    }
  }
  w.boolean(thermal.has_value());
  if (thermal.has_value()) {
    serialize_dfa(w, *thermal);
  }
  w.boolean(ranking.has_value());
  if (ranking.has_value()) {
    w.u64(ranking->size());
    for (const core::CriticalVariable& v : *ranking) {
      w.u32(v.vreg);
      w.f64(v.score);
      w.f64(v.energy_rate_w);
      w.f64(v.expected_cell_temp_k);
      w.f64(v.weighted_accesses);
    }
  }
  w.boolean(gating.has_value());
  if (gating.has_value()) {
    w.u64(gating->gated.size());
    for (bool g : gating->gated) {
      w.boolean(g);
    }
    w.u32(gating->gated_banks);
    w.f64(gating->leakage_saved_w);
  }
}

std::optional<PipelineSnapshot> PipelineSnapshot::deserialize(ByteReader& r) {
  PipelineSnapshot snap;
  snap.function_text = r.str();
  snap.reg_count = r.u32();
  snap.stack_slots = r.u32();
  snap.spilled_regs = r.u32();
  snap.function_fingerprint = r.u64();
  if (r.boolean()) {
    std::vector<machine::PhysReg> map;
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
      map.push_back(r.u32());
    }
    snap.assignment = std::move(map);
  }
  if (r.boolean()) {
    snap.thermal = deserialize_dfa(r);
  }
  if (r.boolean()) {
    std::vector<core::CriticalVariable> vars;
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
      core::CriticalVariable v;
      v.vreg = r.u32();
      v.score = r.f64();
      v.energy_rate_w = r.f64();
      v.expected_cell_temp_k = r.f64();
      v.weighted_accesses = r.f64();
      vars.push_back(v);
    }
    snap.ranking = std::move(vars);
  }
  if (r.boolean()) {
    opt::BankGatingPlan plan;
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
      plan.gated.push_back(r.boolean());
    }
    plan.gated_banks = r.u32();
    plan.leakage_saved_w = r.f64();
    snap.gating = std::move(plan);
  }
  if (!r.ok()) {
    return std::nullopt;
  }
  return snap;
}

void normalize_state_at_boundary(PipelineState& state) {
  std::optional<core::ThermalDfaResult> thermal;
  if (const core::ThermalDfaResult* dfa = state.dfa()) {
    thermal = *dfa;
  }
  state.analyses.reset_computed();
  if (thermal.has_value()) {
    // Re-register the DFA at full fidelity (stat-neutral: the result
    // was counted when the thermal-dfa pass put() it). Keeping the
    // per-instruction states live is what lets passes like nops run
    // unchanged downstream of a snapshot boundary.
    state.analyses.restore(std::move(*thermal));
  }
}

}  // namespace tadfa::pipeline
