#include "pipeline/driver.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <map>
#include <optional>
#include <thread>

#include "pipeline/result_cache.hpp"

namespace tadfa::pipeline {
namespace {

/// Runs one function through the (shared, const) manager, converting a
/// stray exception into a failed result so one function cannot take down
/// the pool.
PipelineRunResult compile_one(const PassManager& manager,
                              const ir::Function& func,
                              const std::vector<PassSpec>& passes,
                              const SnapshotHooks& hooks) {
  try {
    return manager.run(func, passes, hooks);
  } catch (const std::exception& e) {
    PipelineRunResult result(func);
    result.error = std::string("uncaught exception: ") + e.what();
    return result;
  } catch (...) {
    PipelineRunResult result(func);
    result.error = "uncaught non-standard exception";
    return result;
  }
}

/// resume() with the same exception shield as compile_one. A failed
/// resume (stray exception, verifier rejection of the restored state, a
/// pass error) is reported back so the caller can fall back to a full
/// recompile.
PipelineRunResult resume_one(const PassManager& manager, ResumeState resume,
                             const ir::Function& func,
                             const std::vector<PassSpec>& passes,
                             const SnapshotHooks& hooks) {
  try {
    return manager.resume(std::move(resume), passes, hooks);
  } catch (const std::exception& e) {
    PipelineRunResult result(func);
    result.error = std::string("uncaught exception: ") + e.what();
    return result;
  } catch (...) {
    PipelineRunResult result(func);
    result.error = "uncaught non-standard exception";
    return result;
  }
}

/// The passes whose re-run dominates a compile; an enabled StagePolicy
/// snapshots after each of them.
bool is_expensive_pass(const PassSpec& spec) {
  return spec.name == "thermal-dfa" || spec.name == "alloc" ||
         spec.name == "reassign";
}

}  // namespace

bool StagePolicy::wants(std::size_t index,
                        const std::vector<PassSpec>& passes) const {
  if (!enabled || index >= passes.size()) {
    return false;
  }
  return is_expensive_pass(passes[index]) ||
         (every_k != 0 && (index + 1) % every_k == 0);
}

std::uint64_t StagePolicy::digest() const {
  return Hasher(0x7374672d706f6cull /* "stg-pol" */)
      .mix(static_cast<std::uint64_t>(enabled))
      .mix(static_cast<std::uint64_t>(every_k))
      .digest();
}

unsigned CompilationDriver::effective_jobs(std::size_t work_items) const {
  unsigned jobs = jobs_;
  if (jobs == 0) {
    jobs = std::thread::hardware_concurrency();
    if (jobs == 0) {
      jobs = 1;
    }
  }
  if (work_items < jobs) {
    jobs = static_cast<unsigned>(work_items);
  }
  return jobs == 0 ? 1 : jobs;
}

ModulePipelineResult CompilationDriver::compile(const ir::Module& module,
                                                const std::string& spec) const {
  SpecError parse_error;
  const auto passes = parse_pipeline_spec(spec, &parse_error);
  if (!passes.has_value()) {
    ModulePipelineResult result;
    result.error = format_spec_error(parse_error);
    return result;
  }
  return compile(module, *passes);
}

ModulePipelineResult CompilationDriver::compile(
    const ir::Module& module, const std::vector<PassSpec>& passes) const {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();

  const std::vector<ir::Function>& funcs = module.functions();
  const std::size_t n = funcs.size();

  ModulePipelineResult result;
  result.jobs = effective_jobs(n);

  // A pipeline that cannot even be instantiated (unknown pass, bad
  // argument) rejects the whole module before any function compiles.
  if (std::string error = manager_.validate(passes); !error.empty()) {
    result.error = error;
    return result;
  }

  // Slot per function: written by exactly one worker, read after join.
  std::vector<std::optional<PipelineRunResult>> slots(n);
  // unsigned char, not bool: workers write disjoint indices
  // concurrently, which vector<bool>'s bit packing would race on.
  std::vector<unsigned char> from_cache(n, 0);
  std::vector<std::uint32_t> resumed(n, 0);

  // Cache-key ingredients shared by every worker. Keys mix the input
  // fingerprint, the spec prefix, the compilation-environment digest,
  // and the manager toggles that alter recorded statistics. Incremental
  // mode folds the stage policy in as well: boundary normalization
  // changes the recorded analysis counters, so staged and unstaged runs
  // of the same spec must not share records.
  const bool staged = cache_ != nullptr && stage_policy_.enabled;
  std::uint64_t env_digest = 0;
  if (cache_ != nullptr) {
    Hasher h;
    h.mix(ResultCache::context_digest(manager_.context()))
        .mix(static_cast<std::uint64_t>(manager_.checkpoints()))
        .mix(static_cast<std::uint64_t>(manager_.analysis_caching()));
    if (staged) {
      h.mix(stage_policy_.digest());
    }
    env_digest = h.digest();
  }

  // Boundary mask, computed once and shared read-only by the workers.
  // With a cache attached the last boundary is always frozen: that
  // snapshot is the finished compile a later run restores.
  std::vector<unsigned char> boundary(passes.size(), 0);
  if (cache_ != nullptr && !passes.empty()) {
    for (std::size_t i = 0; i < passes.size(); ++i) {
      boundary[i] = stage_policy_.wants(i, passes) ? 1 : 0;
    }
    boundary.back() = 1;
  }

  // Edit-aware mode: build the module's dependency graph, diff it
  // against the persisted record for this module slot, and fold each
  // function's closure digest into its environment digest. Invalidation
  // rides the key change — an edited function and its transitive
  // dependents miss the cache — so the diff is pure reporting and a
  // lost graph can only cost precision, never a wrong answer. A corrupt
  // or throwing graph read degrades to a conservative whole-module
  // recompile (no cache probes at all this run; results are still
  // stored and the graph rewritten, so the next run recovers).
  const bool edit_aware = cache_ != nullptr && edit_aware_;
  DependencyGraph now_graph;
  std::vector<InvalidationDecision> decisions;
  std::vector<std::uint64_t> env_for;
  std::vector<const DependencyNode*> node_for;
  bool degraded = false;
  bool graph_unchanged = false;  // a clean hit equal to now_graph
  CacheKey graph_key;
  if (edit_aware) {
    now_graph = DependencyGraph::build(module);
    graph_key = ResultCache::make_graph_key(now_graph.names_digest(),
                                            spec_to_string(passes),
                                            env_digest);
    DependencyGraph before;
    try {
      auto record = cache_->lookup_graph(graph_key);
      if (record.status == ResultCache::GraphReadStatus::kCorrupt) {
        degraded = true;
      } else if (record.status == ResultCache::GraphReadStatus::kHit) {
        ByteReader r(record.payload);
        auto parsed = DependencyGraph::deserialize(r);
        if (parsed.has_value() && r.remaining() == 0) {
          before = std::move(*parsed);
          graph_unchanged = before == now_graph;
        } else {
          // The record checksum held but the payload does not decode —
          // an encoding skew inside a valid envelope. Same verdict.
          degraded = true;
        }
      }
      // kMiss: first compile of this module slot; diffing against the
      // empty graph labels every function kNew.
    } catch (...) {
      cache_->count_lookup_fault();
      degraded = true;
    }
    if (!degraded) {
      decisions = diff_graphs(before, now_graph);
    }
    env_for.assign(n, env_digest);
    node_for.assign(n, nullptr);
    for (std::size_t i = 0; i < n; ++i) {
      const DependencyNode* node = now_graph.node(funcs[i].name());
      node_for[i] = node;
      // Functions with no outgoing edges keep the plain digest: their
      // keys match non-edit-aware runs, so existing caches stay warm.
      if (node != nullptr && !node->deps.empty()) {
        env_for[i] = Hasher(env_digest).mix(node->closure_digest).digest();
      }
    }
  }

  // One work item: one probe of the persistent cache (a warm restore is
  // byte-identical to a fresh compile and parallelizes like one), then
  // on a miss a compile — or a resume from a cached prefix — whose
  // snapshot hooks freeze the policy's boundaries and the finished
  // result. Every cache call runs shielded: this lambda executes on
  // pool worker threads, where an escaping exception (a
  // std::filesystem_error from a cache directory deleted mid-run, a full
  // disk, a permission flip) would reach std::thread's trap and
  // std::terminate the whole process. A throwing probe degrades to a
  // miss and a throwing store to a skipped one — the compile itself
  // must never die of cache trouble.
  auto process = [&](std::size_t i) {
    if (cache_ == nullptr) {
      slots[i].emplace(compile_one(manager_, funcs[i], passes, {}));
      return;
    }
    const std::uint64_t input_fp = ir::fingerprint(funcs[i]);
    const std::uint64_t env = edit_aware ? env_for[i] : env_digest;
    SnapshotHooks hooks;
    hooks.want = [&boundary](std::size_t index) {
      return boundary[index] != 0;
    };
    hooks.sink = [this, input_fp, env, &passes](
                     std::size_t passes_done, const PipelineSnapshot& snapshot,
                     const std::vector<PassRunStats>& pass_stats,
                     const std::vector<AnalysisManager::AnalysisStats>&
                         analysis_stats,
                     double prefix_seconds) {
      StageEntry entry;
      entry.passes_done = static_cast<std::uint32_t>(passes_done);
      entry.snapshot = snapshot;
      entry.pass_stats = pass_stats;
      entry.analysis_stats = analysis_stats;
      entry.prefix_seconds = prefix_seconds;
      try {
        cache_->insert_stage(input_fp, passes, env, entry);
      } catch (...) {
        cache_->count_store_fault();
      }
    };

    // A degraded edit-aware run compiles everything cold: with the
    // cached graph unreadable the per-function verdicts are gone, and
    // "recompile the module" is the answer that cannot be wrong.
    if (!degraded) {
      std::optional<ResumeState> restored;
      try {
        restored = cache_->lookup_longest_stage(input_fp, passes, env,
                                                funcs[i].name(), staged);
      } catch (...) {
        cache_->count_lookup_fault();
      }
      if (restored.has_value() && restored->passes_done == passes.size()) {
        // The snapshot after the last pass is the finished compile: no
        // pass is instantiated, nothing re-runs.
        PipelineRunResult& run = slots[i].emplace(std::move(restored->state));
        run.ok = true;
        run.pass_stats = std::move(restored->pass_stats);
        run.total_seconds = restored->prefix_seconds;
        from_cache[i] = 1;
        return;
      }
      // A shorter prefix resumes; a failed resume (a pass error on the
      // restored state, a verifier rejection, a stray exception) falls
      // through to the full compile below.
      if (restored.has_value()) {
        const auto done = static_cast<std::uint32_t>(restored->passes_done);
        PipelineRunResult run = resume_one(manager_, std::move(*restored),
                                           funcs[i], passes, hooks);
        if (run.ok) {
          slots[i].emplace(std::move(run));
          resumed[i] = done;
          return;
        }
      }
    }
    slots[i].emplace(compile_one(manager_, funcs[i], passes, hooks));
  };

  if (result.jobs <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      process(i);
    }
  } else {
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        process(i);
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(result.jobs);
    // Under thread exhaustion emplace_back throws std::system_error;
    // already-started workers must be joined before the exception can
    // destroy `pool`, and they drain the whole queue so no slot is left
    // empty. Fewer threads than asked for is degraded, not failed.
    try {
      for (unsigned t = 0; t < result.jobs; ++t) {
        pool.emplace_back(worker);
      }
    } catch (const std::system_error&) {
      if (pool.empty()) {
        for (std::size_t i = 0; i < n; ++i) {
          if (!slots[i].has_value()) {
            process(i);
          }
        }
      }
      result.jobs = pool.empty() ? 1 : static_cast<unsigned>(pool.size());
    }
    for (std::thread& t : pool) {
      t.join();
    }
  }

  // Aggregate in module order, independent of completion order.
  result.ok = true;
  result.functions.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    PipelineRunResult run = std::move(*slots[i]);
    result.work_seconds += run.total_seconds;
    if (!run.ok && result.ok) {
      result.ok = false;
      result.error = "function '" + funcs[i].name() + "': " + run.error;
    }
    result.functions.emplace_back(funcs[i].name(), std::move(run));
    result.functions.back().from_cache = from_cache[i] != 0;
    result.functions.back().resumed_passes = resumed[i];
    if (edit_aware) {
      FunctionCompileResult& f = result.functions.back();
      if (degraded) {
        f.reason = InvalidationReason::kGraphDegraded;
      } else if (node_for[i] != nullptr) {
        const std::size_t d =
            static_cast<std::size_t>(node_for[i] - now_graph.nodes().data());
        f.reason = decisions[d].reason;
        f.invalidated_via = decisions[d].via;
      }
    }
  }
  result.graph_degraded = degraded;

  // Rewrite the graph record (atomic temp + rename inside the cache) so
  // the next resubmission diffs against what was just compiled. Also
  // the recovery path out of a degraded run. Skipped on failure: a
  // half-failed module must not present its fingerprints as compiled.
  // Skipped when the read was a clean hit of this very graph: the
  // serialization is canonical, so the write would put the same bytes
  // under the same key, and the read already refreshed the record's LRU
  // order and mtime.
  if (edit_aware && result.ok && !graph_unchanged) {
    ByteWriter w;
    now_graph.serialize(w);
    try {
      cache_->insert_graph(graph_key, w.data());
    } catch (...) {
      cache_->count_store_fault();
    }
  }

  result.total_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return result;
}

std::size_t ModulePipelineResult::cache_hits() const {
  std::size_t hits = 0;
  for (const FunctionCompileResult& f : functions) {
    hits += f.from_cache ? 1 : 0;
  }
  return hits;
}

double ModulePipelineResult::cache_hit_rate() const {
  return functions.empty()
             ? 0.0
             : static_cast<double>(cache_hits()) /
                   static_cast<double>(functions.size());
}

std::size_t ModulePipelineResult::prefix_hits() const {
  std::size_t hits = 0;
  for (const FunctionCompileResult& f : functions) {
    hits += f.resumed_passes > 0 ? 1 : 0;
  }
  return hits;
}

std::size_t ModulePipelineResult::passes_skipped() const {
  std::size_t skipped = 0;
  for (const FunctionCompileResult& f : functions) {
    skipped += f.resumed_passes;
  }
  return skipped;
}

std::size_t ModulePipelineResult::invalidated_by_edge() const {
  std::size_t count = 0;
  for (const FunctionCompileResult& f : functions) {
    count += f.reason == InvalidationReason::kDependent ? 1 : 0;
  }
  return count;
}

std::size_t ModulePipelineResult::invalidated_by_edit() const {
  std::size_t count = 0;
  for (const FunctionCompileResult& f : functions) {
    count += f.reason == InvalidationReason::kEdited ? 1 : 0;
  }
  return count;
}

std::vector<PassRunStats> ModulePipelineResult::merged_pass_stats() const {
  std::vector<PassRunStats> merged;
  std::size_t contributors = 0;
  std::vector<std::size_t> changed_counts;
  for (const FunctionCompileResult& f : functions) {
    if (!f.run.ok) {
      continue;
    }
    ++contributors;
    const auto& stats = f.run.pass_stats;
    if (merged.empty()) {
      merged = stats;
      changed_counts.assign(stats.size(), 0);
      for (std::size_t i = 0; i < stats.size(); ++i) {
        changed_counts[i] = stats[i].changed ? 1 : 0;
      }
      continue;
    }
    for (std::size_t i = 0; i < merged.size() && i < stats.size(); ++i) {
      merged[i].seconds += stats[i].seconds;
      merged[i].instructions_after += stats[i].instructions_after;
      merged[i].vregs_after += stats[i].vregs_after;
      merged[i].changed = merged[i].changed || stats[i].changed;
      if (stats[i].changed) {
        ++changed_counts[i];
      }
    }
  }
  for (std::size_t i = 0; i < merged.size(); ++i) {
    merged[i].summary = "changed " + std::to_string(changed_counts[i]) + "/" +
                        std::to_string(contributors) + " functions";
  }
  return merged;
}

std::vector<AnalysisManager::AnalysisStats>
ModulePipelineResult::merged_analysis_stats() const {
  std::map<std::string, AnalysisManager::AnalysisStats> by_name;
  for (const FunctionCompileResult& f : functions) {
    for (const AnalysisManager::AnalysisStats& s :
         f.run.state.analyses.stats()) {
      AnalysisManager::AnalysisStats& merged = by_name[s.name];
      merged.name = s.name;
      merged.hits += s.hits;
      merged.misses += s.misses;
      merged.puts += s.puts;
      merged.invalidations += s.invalidations;
    }
  }
  std::vector<AnalysisManager::AnalysisStats> out;
  out.reserve(by_name.size());
  for (auto& [name, s] : by_name) {
    out.push_back(std::move(s));
  }
  return out;
}

TextTable ModulePipelineResult::function_table(
    const std::string& title) const {
  TextTable table(title);
  table.set_header({"#", "function", "ok", "ms", "instrs", "vregs", "spills"});
  for (std::size_t i = 0; i < functions.size(); ++i) {
    const FunctionCompileResult& f = functions[i];
    table.add_row({std::to_string(i + 1), f.name, f.run.ok ? "yes" : "NO",
                   TextTable::num(f.run.total_seconds * 1e3, 3),
                   std::to_string(f.run.state.func.instruction_count()),
                   std::to_string(f.run.state.func.reg_count()),
                   std::to_string(f.run.state.spilled_regs)});
  }
  return table;
}

TextTable ModulePipelineResult::stats_table(const std::string& title) const {
  TextTable table(title);
  table.set_header({"#", "pass", "ms", "instrs", "vregs", "summary"});
  const auto merged = merged_pass_stats();
  for (std::size_t i = 0; i < merged.size(); ++i) {
    const PassRunStats& s = merged[i];
    table.add_row({std::to_string(i + 1), s.name,
                   TextTable::num(s.seconds * 1e3, 3),
                   std::to_string(s.instructions_after),
                   std::to_string(s.vregs_after), s.summary});
  }
  return table;
}

}  // namespace tadfa::pipeline
