// Shared state threaded through a pass pipeline.
//
// The paper's Sec. 4 flow (thermal DFA -> rank critical variables ->
// split/spill -> cool-first re-allocation -> thermal scheduling) used to be
// hand-wired differently in every example and bench driver. The pipeline
// subsystem makes it declarative: a PipelineState carries the function
// being compiled plus an AnalysisManager holding every derived artifact —
// lazily computed analyses (Cfg, Liveness, ...) and registered pass
// products (assignment, thermal-DFA result, ranking, gating plan). Passes
// read artifacts through the accessors below (failing on absent
// prerequisites) and report what they kept valid via
// PassOutcome::preserved instead of the old blanket invalidate_derived().
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/critical.hpp"
#include "core/thermal_dfa.hpp"
#include "ir/function.hpp"
#include "machine/assignment.hpp"
#include "opt/bank_gating.hpp"
#include "pipeline/analysis_manager.hpp"
#include "pipeline/context.hpp"
#include "support/serialize.hpp"

namespace tadfa::pipeline {

TADFA_REGISTER_ANALYSIS_RESULT(opt::BankGatingPlan, "bank-gating-plan");

/// Mutable state a pipeline run threads from pass to pass. Move-only: the
/// analysis cache inside holds pointers into `func`, so moves drop the
/// computed analyses (registered results survive; see
/// AnalysisManager::on_function_moved).
struct PipelineState {
  /// The function being compiled (spill-rewritten, split, scheduled...).
  ir::Function func;

  /// Analysis cache + registered pass products for `func`.
  AnalysisManager analyses;

  /// Virtual registers spilled across all allocation passes so far.
  std::uint32_t spilled_regs = 0;

  /// A state always wraps a real function: the old default constructor
  /// manufactured a nameless ir::Function("") that sailed through the
  /// verifier and hid "forgot to set the function" bugs.
  PipelineState() = delete;
  explicit PipelineState(ir::Function f) : func(std::move(f)) {}

  PipelineState(PipelineState&& other) noexcept
      : func(std::move(other.func)),
        analyses(std::move(other.analyses)),
        spilled_regs(other.spilled_regs) {
    analyses.on_function_moved();
  }
  PipelineState& operator=(PipelineState&& other) noexcept {
    func = std::move(other.func);
    analyses = std::move(other.analyses);
    spilled_regs = other.spilled_regs;
    analyses.on_function_moved();
    return *this;
  }
  PipelineState(const PipelineState&) = delete;
  PipelineState& operator=(const PipelineState&) = delete;

  // --- Artifact accessors ----------------------------------------------------
  // nullptr when the artifact has not been produced (or was invalidated).

  /// Physical assignment of `func`, registered by `alloc=` passes and
  /// dropped by IR-reshaping passes (cse, dce, split-hot, ...).
  const machine::RegisterAssignment* assignment() const {
    return analyses.result<machine::RegisterAssignment>();
  }
  bool has_assignment() const { return assignment() != nullptr; }

  /// Most recent thermal-DFA prediction. Its per-register exit
  /// temperatures guide subsequent heat-aware allocation; its
  /// per-instruction states refer to the func at analysis time, so passes
  /// that reshape instructions clear them (but keep the exit temps).
  const core::ThermalDfaResult* dfa() const {
    return analyses.result<core::ThermalDfaResult>();
  }

  /// Critical-variable ranking from the last `thermal-dfa` pass.
  const std::vector<core::CriticalVariable>* ranking() const {
    const auto* r = analyses.result<CriticalRanking>();
    return r ? &r->vars : nullptr;
  }

  /// Bank power-gating plan from a `bank-gating` pass.
  const opt::BankGatingPlan* gating() const {
    return analyses.result<opt::BankGatingPlan>();
  }
};

/// Full-fidelity DFA serialization for stage snapshots. Every freeze —
/// the last boundary included — keeps the per-instruction states and δ
/// history: passes downstream of the boundary (nops, most directly)
/// read them, a spec extension resumes from the last boundary, and a
/// resumed run must see exactly what the cold run saw.
void serialize_dfa(ByteWriter& w, const core::ThermalDfaResult& dfa);
core::ThermalDfaResult deserialize_dfa(ByteReader& r);

/// A serializable freeze of a PipelineState at a pass boundary: the
/// function via the canonical printer plus every *registered* artifact
/// (assignment, full DFA result, critical ranking, gating plan).
/// Computed analyses are deliberately absent — they are cheap to
/// rebuild and hold pointers into the live function. restore()
/// reconstructs a PipelineState a resumed pipeline can continue from;
/// paired with normalize_state_at_boundary() on the producing side, the
/// restored state is indistinguishable from the cold run's state at the
/// same boundary (artifacts, analysis-cache contents, even the counters
/// once the sidecar stats are imported).
struct PipelineSnapshot {
  std::string function_text;
  /// The printer/parser round-trip loses trailing *unused* registers
  /// and the stack-slot counter; both are restored from here so the
  /// reconstructed function is fingerprint-identical.
  std::uint32_t reg_count = 0;
  std::uint32_t stack_slots = 0;
  std::uint32_t spilled_regs = 0;
  /// ir::fingerprint of the frozen function; verified after re-parsing.
  std::uint64_t function_fingerprint = 0;
  /// Raw vreg -> phys map including unassigned slots
  /// (machine::RegisterAssignment::kUnassigned sentinel).
  std::optional<std::vector<machine::PhysReg>> assignment;
  std::optional<core::ThermalDfaResult> thermal;
  std::optional<std::vector<core::CriticalVariable>> ranking;
  std::optional<opt::BankGatingPlan> gating;

  /// Freezes `state`. Capture what restore() reconstructs: callers that
  /// need capture/restore to round-trip exactly must normalize the
  /// state first (normalize_state_at_boundary).
  static PipelineSnapshot capture(const PipelineState& state);

  /// Rebuilds a PipelineState named `function_name`, with every
  /// artifact re-registered stat-neutrally (AnalysisManager::restore).
  /// nullopt when the text does not parse or the reconstructed function
  /// does not match `function_fingerprint` (a corrupt snapshot).
  std::optional<PipelineState> restore(const std::string& function_name) const;

  void serialize(ByteWriter& w) const;
  /// nullopt on any truncation/implausibility (totalizing reader).
  static std::optional<PipelineSnapshot> deserialize(ByteReader& r);

  friend bool operator==(const PipelineSnapshot&,
                         const PipelineSnapshot&) = default;
};

/// Pass-boundary normalization: reduces a live state to exactly what a
/// snapshot restore reconstructs — registered artifacts only, with the
/// computed DFA result re-registered at full fidelity. Dropping the
/// computed analyses counts their invalidations (same bookkeeping as
/// moving the state), so a cold run that snapshots at a boundary and a
/// resumed run that starts from the restored snapshot replay
/// byte-identical analysis statistics.
void normalize_state_at_boundary(PipelineState& state);

}  // namespace tadfa::pipeline
