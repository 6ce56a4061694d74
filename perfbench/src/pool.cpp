// cold_module and deep_loops: a fixed pool of modules, compiled cold
// (no cache) pass after pass until the run's time is up.
//
// Per-function and per-module times are medians over the passes, so a
// sample is one pool function (or module) and the sample counts, and
// with them the tail percentiles, are fixed by the pool's shape. A
// reference burst before each module compile measures the host's speed.
#include <memory>
#include <optional>

#include "core/thermal_dfa.hpp"
#include "frontend/frontend.hpp"
#include "nest_gen.hpp"
#include "pipeline/driver.hpp"
#include "seeds.hpp"
#include "speed.hpp"
#include "workload/modules.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace tp = tadfa::pipeline;

namespace {

constexpr int kSetupRepeats = 9;

// cold_module pool: kColdModules modules of kColdFunctions functions
// (enough that each module holds a `ref` edge).
constexpr std::size_t kColdModules = 128;
constexpr std::size_t kColdFunctions = 6;
constexpr unsigned kColdJobs = 1;

// deep_loops pool: kDeepModules modules of nests 2, 3, 4 and 5 deep;
// every other module has a 6-deep nest in place of the 5-deep one.
// Compiled on one worker: with two, the small nests compiled beside a
// 6-deep one took twice as long in some host states (function_p50 9.4
// against 5.0 ms in two ten-run sets of the same code), a contention the
// single-thread speed reference cannot see.
constexpr std::size_t kDeepModules = 24;
constexpr unsigned kDeepJobs = 1;

struct PoolWorkload {
  std::string name;
  unsigned jobs = 1;
  std::vector<PoolModule> (*make_pool)(std::uint64_t seed);
};

/// The first pass's output of one pool function, kept for the checks.
struct Compiled {
  tadfa::ir::Function input;
  tadfa::ir::Function output;
  tadfa::machine::RegisterAssignment assignment;
  std::uint64_t fingerprint = 0;
};

/// Per pool function (or module): its median time over the passes.
std::vector<double> medians(const std::vector<std::vector<double>>& samples) {
  std::vector<double> out;
  for (const auto& s : samples) {
    if (!s.empty()) {
      out.push_back(median(s));
    }
  }
  return out;
}

/// Samples of one run of timed passes.
struct PassTimes {
  /// [pool function][pass]: CompilationDriver's per-function time.
  std::vector<std::vector<double>> function_s;
  /// [module][pass]: parse + compile, as the caller waits for it.
  std::vector<std::vector<double>> request_s;
  std::size_t passes = 0;
  /// Host speed over these passes.
  SpeedProbe speed;

  /// Sum over modules of the median request time: one pool pass.
  double pass_seconds() const {
    double total = 0;
    for (const double s : medians(request_s)) {
      total += s;
    }
    return total;
  }
};

class PoolRunner {
 public:
  PoolRunner(const PoolWorkload& workload, const tp::CompileRig& rig,
             const std::vector<PoolModule>& pool, RunResult& result)
      : workload_(workload),
        rig_(rig),
        pool_(pool),
        result_(result),
        driver_(rig.context()),
        texpr_(tadfa::frontend::find_frontend("texpr")) {
    driver_.set_jobs(workload.jobs);
    for (const PoolModule& m : pool_) {
      functions_ += m.inputs.size();
    }
    compiled_.resize(functions_);
  }

  std::size_t functions() const { return functions_; }

  /// Compiles the whole pool pass after pass until `seconds` have
  /// passed (at least one pass), recording spans when `tracer` is set.
  PassTimes timed_passes(double seconds, Tracer* tracer);

  /// Traced run only: one PassManager::run per pool function with the
  /// driver's spec and context, pass spans laid end to end from its
  /// PassRunStats; outputs must match CompilationDriver's.
  void trace_passes(Tracer& tracer, std::vector<std::size_t>& instrs_after,
                    std::size_t& spilled);

  /// Traced run only: the DFA on each function's linear-scan output
  /// (the thermal-dfa pass's own input), one analyze_post_ra call each.
  struct DfaCounts {
    std::uint64_t iterations = 0;
    std::uint64_t transfers = 0;
    std::uint64_t nonconverged = 0;
  };
  DfaCounts trace_dfa(Tracer& tracer);

  /// Interpreter checks and code quality of every pool function.
  Quality check_outputs();

 private:
  void compile_module(std::size_t m, std::size_t first_function,
                      PassTimes& times, Tracer* tracer);

  const PoolWorkload& workload_;
  const tp::CompileRig& rig_;
  const std::vector<PoolModule>& pool_;
  RunResult& result_;
  tp::CompilationDriver driver_;
  const tadfa::frontend::Frontend* texpr_;
  std::size_t functions_ = 0;
  /// Per pool function; empty where the first pass failed.
  std::vector<std::optional<Compiled>> compiled_;
};

PassTimes PoolRunner::timed_passes(double seconds, Tracer* tracer) {
  PassTimes times;
  times.function_s.resize(functions_);
  times.request_s.resize(pool_.size());
  const Clock::time_point start = Clock::now();
  while (times.passes == 0 || seconds_since(start) < seconds) {
    std::size_t first = 0;
    for (std::size_t m = 0; m < pool_.size(); ++m) {
      times.speed.sample();
      compile_module(m, first, times, tracer);
      first += pool_[m].inputs.size();
    }
    ++times.passes;
  }
  return times;
}

void PoolRunner::compile_module(std::size_t m, std::size_t first,
                                PassTimes& times, Tracer* tracer) {
  const PoolModule& pm = pool_[m];
  const Clock::time_point t0 = Clock::now();
  std::optional<tadfa::frontend::ParseResult> parsed;
  if (!pm.source.empty()) {
    parsed = texpr_->parse(pm.source);
  }
  const Clock::time_point t1 = Clock::now();
  const tadfa::ir::Module* input = &pm.module;
  if (parsed.has_value()) {
    input = parsed->ok() ? &*parsed->module : nullptr;
  }
  tp::ModulePipelineResult out;
  if (input != nullptr) {
    out = driver_.compile(*input, kDefaultSpec);
  }
  const Clock::time_point t2 = Clock::now();

  // Everything below is outside the timed region.
  times.request_s[m].push_back(std::chrono::duration<double>(t2 - t0).count());
  if (tracer != nullptr) {
    const int request = tracer->add("request", tracer->us(t0), tracer->us(t2),
                                    kNoParent, pm.name);
    if (parsed.has_value()) {
      tracer->add("frontend.parse", tracer->us(t0), tracer->us(t1), request,
                  pm.name);
    }
    tracer->add("driver.compile", tracer->us(t1), tracer->us(t2), request,
                pm.name);
  }
  result_.attempted += pm.inputs.size();
  if (input == nullptr) {
    for (std::size_t i = 0; i < pm.inputs.size(); ++i) {
      result_.fail(pm.name + ": texpr parse failed: " +
                   parsed->diagnostics_text());
    }
    return;
  }
  if (out.functions.size() != pm.inputs.size()) {
    for (std::size_t i = 0; i < pm.inputs.size(); ++i) {
      result_.fail(pm.name + ": module rejected: " + out.error);
    }
    return;
  }
  for (std::size_t i = 0; i < out.functions.size(); ++i) {
    const tp::FunctionCompileResult& f = out.functions[i];
    times.function_s[first + i].push_back(f.run.total_seconds);
    const tadfa::machine::RegisterAssignment* assignment =
        f.run.state.assignment();
    if (!f.run.ok || assignment == nullptr) {
      result_.fail(f.name + ": compile failed: " + f.run.error);
      continue;
    }
    const std::uint64_t fp = tadfa::ir::fingerprint(f.run.state.func);
    std::optional<Compiled>& kept = compiled_[first + i];
    if (times.passes == 0 && !kept.has_value()) {
      kept = Compiled{input->functions()[i], f.run.state.func, *assignment,
                      fp};
    } else if (kept.has_value() && kept->fingerprint != fp) {
      result_.fail(f.name + ": output differs between passes");
    }
  }
}

void PoolRunner::trace_passes(Tracer& tracer,
                              std::vector<std::size_t>& instrs_after,
                              std::size_t& spilled) {
  const tp::PassManager manager(rig_.context());
  instrs_after.assign(kPassCount, 0);
  for (const std::optional<Compiled>& kept : compiled_) {
    if (!kept.has_value()) {
      continue;
    }
    const Compiled& c = *kept;
    const Clock::time_point t0 = Clock::now();
    const tp::PipelineRunResult run = manager.run(c.input, kDefaultSpec);
    const Clock::time_point t1 = Clock::now();
    const std::string& id = c.input.name();
    const int span = tracer.add("function", tracer.us(t0), tracer.us(t1),
                                kNoParent, id);
    if (!run.ok || run.pass_stats.size() != kPassCount ||
        tadfa::ir::fingerprint(run.state.func) != c.fingerprint) {
      result_.fail(id + ": PassManager::run differs from the module compile");
      continue;
    }
    double at = tracer.us(t0);
    for (std::size_t p = 0; p < kPassCount; ++p) {
      const tp::PassRunStats& stats = run.pass_stats[p];
      const double end = at + stats.seconds * 1e6;
      tracer.add(std::string("pass.") + kPassKeys[p], at, end, span, id);
      at = end;
      instrs_after[p] += stats.instructions_after;
    }
    spilled += run.state.spilled_regs;
  }
}

PoolRunner::DfaCounts PoolRunner::trace_dfa(Tracer& tracer) {
  const tp::PipelineContext ctx = rig_.context();
  const tp::PassManager manager(ctx);
  const tadfa::core::ThermalDfa dfa(*ctx.grid, *ctx.power, ctx.timing,
                                    ctx.dfa_config);
  DfaCounts counts;
  for (const std::optional<Compiled>& kept : compiled_) {
    if (!kept.has_value()) {
      continue;
    }
    const Compiled& c = *kept;
    const tp::PipelineRunResult linear =
        manager.run(c.input, "alloc=linear:first_free");
    if (!linear.ok || linear.state.assignment() == nullptr) {
      result_.fail(c.input.name() + ": linear-scan allocation failed");
      continue;
    }
    const Clock::time_point t0 = Clock::now();
    const tadfa::core::ThermalDfaResult r =
        dfa.analyze_post_ra(linear.state.func, *linear.state.assignment());
    const Clock::time_point t1 = Clock::now();
    tracer.add("dfa", tracer.us(t0), tracer.us(t1), kNoParent,
               c.input.name());
    counts.iterations += static_cast<std::uint64_t>(r.iterations);
    counts.transfers += static_cast<std::uint64_t>(r.iterations) *
                        linear.state.func.instruction_count();
    counts.nonconverged += r.converged ? 0 : 1;
  }
  return counts;
}

Quality PoolRunner::check_outputs() {
  Quality quality;
  std::size_t index = 0;
  for (const PoolModule& pm : pool_) {
    for (const CheckInput& in : pm.inputs) {
      const std::optional<Compiled>& c = compiled_[index++];
      if (!c.has_value()) {
        continue;
      }
      const std::string why =
          check_function(rig_, c->input, c->output, c->assignment, in, quality);
      if (!why.empty()) {
        result_.fail(why);
      }
    }
  }
  return quality;
}

std::string tail_label(const Tail& t) {
  return "\"p" + std::to_string(t.pct) + " of " + std::to_string(t.samples) +
         "\"";
}

RunResult run_pool(const Options& options, const PoolWorkload& workload) {
  RunResult result;
  Clock::time_point phase_start = Clock::now();
  const auto phase = [&](const char* name) {
    result.phases.emplace_back(name, seconds_since(phase_start));
    phase_start = Clock::now();
  };
  std::unique_ptr<tp::CompileRig> rig;
  std::vector<PoolModule> pool;
  // Set-up builds the rig and the inputs, then compiles the first module
  // once so lazy initialization is paid before the timed passes.
  const double setup_s = median_setup_seconds(kSetupRepeats, [&](bool) {
    rig = std::make_unique<tp::CompileRig>(default_machine());
    pool = workload.make_pool(options.seed);
    const PoolModule& first = pool.front();
    std::optional<tadfa::frontend::ParseResult> parsed;
    if (!first.source.empty()) {
      parsed = tadfa::frontend::find_frontend("texpr")->parse(first.source);
    }
    tp::CompilationDriver warm_up(rig->context());
    warm_up.set_jobs(workload.jobs);
    if (parsed.has_value() && parsed->ok()) {
      warm_up.compile(*parsed->module, kDefaultSpec);
    } else if (!parsed.has_value()) {
      warm_up.compile(first.module, kDefaultSpec);
    }
  });

  PoolRunner runner(workload, *rig, pool, result);
  const double timed = options.trace ? options.seconds / 2 : options.seconds;
  phase("setup");
  const PassTimes times = runner.timed_passes(timed, nullptr);
  const double rss_mb = peak_rss_mb();
  phase("timed");
  result.speed_factor = times.speed.factor();

  const std::vector<double> fn_s = medians(times.function_s);
  const std::vector<double> req_s = medians(times.request_s);
  const Tail fn_tail = tail(fn_s);
  const Tail req_tail = tail(req_s);

  result.config = {
      {"workload", "\"" + workload.name + "\""},
      {"seed", std::to_string(options.seed)},
      {"spec", "\"" + std::string(kDefaultSpec) + "\""},
      {"machine", "\"default\""},
      {"jobs", std::to_string(workload.jobs)},
      {"modules", std::to_string(pool.size())},
      {"functions", std::to_string(runner.functions())},
      {"seconds", std::to_string(options.seconds)},
      {"function_tail", tail_label(fn_tail)},
      {"request_tail", tail_label(req_tail)},
  };

  if (!options.trace) {
    const Quality quality = runner.check_outputs();
    phase("checks");
    result.add("setup_s", setup_s);
    result.add("functions_per_sec",
               static_cast<double>(runner.functions()) / times.pass_seconds());
    result.add("function_p50_ms", median(fn_s) * 1e3);
    result.add("function_tail_ms", fn_tail.value * 1e3);
    result.add("request_p50_ms", median(req_s) * 1e3);
    result.add("request_tail_ms", req_tail.value * 1e3);
    result.add("peak_rss_mb", rss_mb);
    result.add("code_instrs", static_cast<double>(quality.code_instrs));
    result.add("exec_cycles", quality.exec_cycles());
    result.add("replay_peak_c", quality.replay_peak_c());
    return result;
  }

  // Traced run: the same passes again with spans, then one traced
  // PassManager::run and one DFA call per function (not part of the
  // overhead comparison, which is between the two timed phases).
  result.tracer = std::make_unique<Tracer>();
  Tracer& tracer = *result.tracer;
  const PassTimes traced = runner.timed_passes(timed, &tracer);
  phase("timed with spans");
  result.speed_factor = traced.speed.factor();
  std::vector<std::size_t> instrs_after;
  std::size_t spilled = 0;
  runner.trace_passes(tracer, instrs_after, spilled);
  const PoolRunner::DfaCounts dfa = runner.trace_dfa(tracer);
  phase("pass and dfa spans");
  runner.check_outputs();
  phase("checks");

  const auto totals = tracer.totals_by_name();
  const auto self_ms = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.self_us / 1e3;
  };
  const double passes = static_cast<double>(traced.passes);
  std::size_t source_bytes = 0;
  for (const PoolModule& pm : pool) {
    source_bytes += pm.source.size();
  }
  result.add("frontend.parse_ms", self_ms("frontend.parse") / passes);
  result.add("frontend.source_kb", source_bytes / 1024.0);
  for (std::size_t p = 0; p < kPassCount; ++p) {
    const std::string key = std::string("pass.") + kPassKeys[p];
    result.add(key + ".ms", self_ms(key));
    result.add(key + ".instrs_after",
               static_cast<double>(instrs_after[p]));
  }
  result.add("regalloc.spilled_regs", static_cast<double>(spilled));
  const double dfa_ms = self_ms("dfa");
  result.add("dfa.ms", dfa_ms);
  result.add("dfa.iterations", static_cast<double>(dfa.iterations));
  result.add("dfa.transfers", static_cast<double>(dfa.transfers));
  result.add("dfa.us_per_transfer",
             dfa.transfers == 0 ? 0 : dfa_ms * 1e3 / dfa.transfers);
  result.add("dfa.nonconverged", static_cast<double>(dfa.nonconverged));
  const double wall_s = self_ms("driver.compile") / 1e3 / passes;
  double work_s = 0;
  for (const auto& samples : traced.function_s) {
    for (const double s : samples) {
      work_s += s;
    }
  }
  work_s /= passes;
  result.add("driver.wall_s", wall_s);
  result.add("driver.work_s", work_s);
  result.add("driver.pool_efficiency",
             wall_s > 0 ? work_s / (wall_s * workload.jobs) : 0);
  result.add("tracing.overhead_pct",
             (traced.pass_seconds() * traced.speed.factor() /
                  (times.pass_seconds() * times.speed.factor()) -
              1.0) *
                 100.0);
  return result;
}

}  // namespace

std::vector<PoolModule> cold_module_pool(std::uint64_t seed) {
  SeedStream rng(seed);
  std::vector<PoolModule> pool;
  for (std::size_t m = 0; m < kColdModules; ++m) {
    tadfa::workload::ModuleConfig config;
    config.functions = kColdFunctions;
    config.seed = mix_seed(kCorpusSeed, m);
    PoolModule pm;
    pm.name = "m" + std::to_string(m);
    pm.module = tadfa::workload::make_mixed_module(config);
    for (tadfa::ir::Function& f : pm.module.functions()) {
      salt_function(f, rng.range(1, 1 << 20));
      pm.inputs.push_back(seeded_input(f.params().size(), rng.next()));
    }
    pool.push_back(std::move(pm));
  }
  return pool;
}

std::vector<PoolModule> deep_loops_pool(std::uint64_t seed) {
  constexpr NestShape kShapes[] = {NestShape::kMatmul, NestShape::kStencil,
                                   NestShape::kConv2d};
  std::vector<PoolModule> pool;
  for (std::size_t m = 0; m < kDeepModules; ++m) {
    std::vector<Nest> nests;
    PoolModule pm;
    pm.name = "m" + std::to_string(m);
    const int deepest = m % 2 == 1 ? kMaxNestDepth : kMaxNestDepth - 1;
    for (const int depth : {kMinNestDepth, 3, 4, deepest}) {
      const NestShape shape = kShapes[(m + depth) % std::size(kShapes)];
      const std::uint64_t salt = mix_seed(seed, m * 16 + depth);
      nests.push_back(make_nest(shape, depth, salt,
                                std::string(shape_name(shape)) + "_d" +
                                    std::to_string(depth) + "_" + pm.name));
      CheckInput in;
      in.args = nests.back().args;
      in.memory_seed = mix_seed(salt, 1);
      in.expected = nests.back().expected;
      pm.inputs.push_back(std::move(in));
    }
    pm.source = module_source(nests);
    pool.push_back(std::move(pm));
  }
  return pool;
}

RunResult run_cold_module(const Options& options) {
  return run_pool(options, {"cold_module", kColdJobs, &cold_module_pool});
}

RunResult run_deep_loops(const Options& options) {
  return run_pool(options, {"deep_loops", kDeepJobs, &deep_loops_pool});
}

}  // namespace perfbench
