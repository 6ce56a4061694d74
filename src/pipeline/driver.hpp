// CompilationDriver: the module-level, multi-threaded front end of the
// pipeline layer.
//
// PassManager compiles one ir::Function; real inputs are modules. The
// driver fans a module's functions out over a fixed-size worker pool
// (`--jobs N`, default hardware_concurrency). Per-function thermal DFA is
// embarrassingly parallel — every function gets its own RC-grid state —
// so the only shared objects are immutable: the Floorplan, ThermalGrid
// conductance tables, PowerModel, TimingModel, and the PassRegistry, all
// reached through const references. Each worker owns everything mutable
// (PipelineState, AnalysisManager, pass instances) for the function it is
// compiling.
//
// Determinism guarantee: results are stored by module index, not
// completion order, and every pass is a pure function of its input
// function plus the shared immutable context. Compiling the same module
// with any job count therefore yields byte-identical per-function IR,
// fingerprints, and pass statistics (timing fields excepted — wall-clock
// is the one thing threads are allowed to change).
#pragma once

#include <string>
#include <vector>

#include "ir/function.hpp"
#include "pipeline/dependency_graph.hpp"
#include "pipeline/pass_manager.hpp"

namespace tadfa::pipeline {

class ResultCache;

/// Where the driver freezes extra pass-boundary snapshots into the
/// attached ResultCache, and therefore whether it probes for a
/// resumable prefix before compiling (`tadfa --incremental`). The
/// boundary after the last pass is not the policy's: with any cache
/// attached, the driver always freezes it, because that record is the
/// finished compile.
struct StagePolicy {
  /// Master switch; every_k is ignored while false. When on, the driver
  /// snapshots after passes whose re-run dominates a compile — the
  /// thermal DFA's iterate-to-δ fixpoint and register allocation.
  bool enabled = false;
  /// Also snapshot after every k-th pass (0 = off).
  unsigned every_k = 0;

  /// True when boundary `index` (after passes[index]) gets a snapshot.
  bool wants(std::size_t index, const std::vector<PassSpec>& passes) const;

  /// Folded into the cache environment digest while enabled: boundary
  /// normalization changes the recorded analysis counters, so runs
  /// under different stage placements must not share records.
  std::uint64_t digest() const;
};

/// One function's compilation inside a module run (module order).
struct FunctionCompileResult {
  FunctionCompileResult(std::string function_name, PipelineRunResult r)
      : name(std::move(function_name)), run(std::move(r)) {}

  std::string name;
  PipelineRunResult run;
  /// True when the result was restored from the persistent ResultCache
  /// instead of compiled in this run.
  bool from_cache = false;
  /// Passes skipped by resuming from a cached stage snapshot (0 when
  /// the function was compiled from scratch or fully restored).
  std::uint32_t resumed_passes = 0;
  /// Edit-aware mode: why this function was (or was not) invalidated
  /// against the cached dependency graph. kUnknown outside that mode.
  InvalidationReason reason = InvalidationReason::kUnknown;
  /// For kDependent: the dependency path walked to the changed function
  /// ("a -> b -> c", c edited). Empty otherwise.
  std::string invalidated_via;
};

struct ModulePipelineResult {
  /// True when every function compiled.
  bool ok = false;
  /// First failure in module order, prefixed with the function name.
  std::string error;
  /// One entry per module function, in module order.
  std::vector<FunctionCompileResult> functions;
  /// Wall-clock time of the whole module compile.
  double total_seconds = 0;
  /// Sum of per-function pipeline times (the serial cost the pool hid).
  double work_seconds = 0;
  /// Worker threads actually used.
  unsigned jobs = 1;

  /// Pass statistics summed position-wise over all successful functions
  /// (every function runs the same spec). Deterministic except for the
  /// `seconds` field; `summary` becomes "changed K/N functions".
  std::vector<PassRunStats> merged_pass_stats() const;

  /// Analysis-cache counters summed by analysis name over all functions.
  std::vector<AnalysisManager::AnalysisStats> merged_analysis_stats() const;

  /// Functions restored from the persistent result cache.
  std::size_t cache_hits() const;
  /// cache_hits() over the module size (0 when the module is empty).
  double cache_hit_rate() const;

  /// Functions that resumed from a cached stage snapshot instead of
  /// compiling from pass 0 (incremental mode).
  std::size_t prefix_hits() const;
  /// Total passes those resumes skipped, summed over the module.
  std::size_t passes_skipped() const;

  /// Edit-aware mode: true when the cached dependency graph existed but
  /// could not be read (corrupt record, throwing lookup) and the whole
  /// module was conservatively recompiled.
  bool graph_degraded = false;
  /// Functions invalidated purely by a dependency edge — unchanged
  /// themselves, recompiled because something they transitively
  /// reference was edited (reason == kDependent).
  std::size_t invalidated_by_edge() const;
  /// Functions whose own body changed (reason == kEdited).
  std::size_t invalidated_by_edit() const;

  /// Per-function result table (name, instrs, vregs, spills, time).
  TextTable function_table(const std::string& title = "module") const;

  /// Merged per-pass table, same shape as PassManager::stats_table.
  TextTable stats_table(const std::string& title = "module pipeline") const;
};

class CompilationDriver {
 public:
  explicit CompilationDriver(PipelineContext ctx,
                             const PassRegistry& registry = default_registry())
      : manager_(ctx, registry) {}

  /// Worker-pool size; 0 (default) means std::thread::hardware_concurrency.
  void set_jobs(unsigned jobs) { jobs_ = jobs; }
  /// The pool size a module of `work_items` functions would get.
  unsigned effective_jobs(std::size_t work_items) const;

  void set_checkpoints(bool enabled) { manager_.set_checkpoints(enabled); }
  void set_analysis_caching(bool enabled) {
    manager_.set_analysis_caching(enabled);
  }

  /// Attaches a persistent result cache (nullptr detaches; not owned).
  /// Every work item makes one probe before compiling — restores run
  /// on the pool just like compiles, so a warm run parallelizes too —
  /// and a compile freezes its finished result as the snapshot after
  /// the last pass. A warm run over an unchanged module re-runs no pass
  /// at all and produces byte-identical module output to the cold run
  /// (register assignment and DFA result included) at any job count,
  /// extending the determinism guarantee across processes.
  void set_result_cache(ResultCache* cache) { cache_ = cache; }

  /// Enables incremental compilation against the attached cache: the
  /// probe also tries shorter spec prefixes, a hit resumes from the
  /// longest one, and compiles freeze snapshots at the policy's
  /// boundaries as well. No effect without a result cache.
  void set_stage_policy(StagePolicy policy) { stage_policy_ = policy; }
  const StagePolicy& stage_policy() const { return stage_policy_; }

  /// Enables edit-aware compilation against the attached cache: the
  /// driver builds the module's DependencyGraph, diffs it against the
  /// persisted TADFADG1 record for this module slot, mixes each
  /// function's closure digest into its cache keys (functions with no
  /// outgoing edges keep plain keys, so existing caches stay warm), and
  /// labels every function with an InvalidationReason. Invalidation is
  /// enforced by the key change — an edited function and all its
  /// transitive dependents simply miss — so correctness never depends
  /// on the cached graph; a corrupt or throwing graph record only costs
  /// precision (the whole module recompiles, flagged graph_degraded).
  /// No effect without a result cache.
  void set_edit_aware(bool enabled) { edit_aware_ = enabled; }
  bool edit_aware() const { return edit_aware_; }

  /// Compiles every function of `module` under `spec`. A spec error
  /// rejects the whole module before any work runs; a per-function
  /// failure still compiles the remaining functions (result.ok is false
  /// and result.error names the first failure in module order).
  ModulePipelineResult compile(const ir::Module& module,
                               const std::string& spec) const;
  ModulePipelineResult compile(const ir::Module& module,
                               const std::vector<PassSpec>& passes) const;

  const PassManager& pass_manager() const { return manager_; }
  const PipelineContext& context() const { return manager_.context(); }

 private:
  PassManager manager_;
  unsigned jobs_ = 0;
  ResultCache* cache_ = nullptr;
  StagePolicy stage_policy_;
  bool edit_aware_ = false;
};

}  // namespace tadfa::pipeline
