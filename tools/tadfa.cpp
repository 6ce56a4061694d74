// tadfa — the pipeline as a command-line tool.
//
// Parses named kernels and/or IR text files, runs a spec-string pipeline,
// and reports per-pass statistics. A single-function input additionally
// measures the thermal effect (trace -> replay) against a baseline
// pipeline; multiple inputs (or a multi-function .tir file) are compiled
// as one module through the multi-threaded pipeline::CompilationDriver.
//
//   tadfa crc32
//   tadfa --pipeline="cse,dce,alloc=linear:farthest_spread" fir
//   tadfa --pipeline="alloc=linear:first_free,thermal-dfa,nops=3" my.tir
//   tadfa --jobs=8 crc32 fir matmul suite.tir
//   tadfa --frontend=texpr --machine=dense45 prog.texpr
//   tadfa serve --socket=/tmp/tadfa.sock --cache-dir=/var/cache/tadfa
//   tadfa serve --tcp=127.0.0.1:7411 --max-queue=64
//   tadfa client --socket=/tmp/tadfa.sock crc32 fir my.tir
//   tadfa --list-passes
#include <algorithm>
#include <csignal>
#include <ctime>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "frontend/frontend.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "machine/machine_config.hpp"
#include "pipeline/driver.hpp"
#include "pipeline/pass_manager.hpp"
#include "pipeline/result_cache.hpp"
#include "pipeline/rig.hpp"
#include "power/access_trace.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/transport.hpp"
#include "sim/interpreter.hpp"
#include "sim/thermal_replay.hpp"
#include "support/heatmap.hpp"
#include "support/string_utils.hpp"
#include "support/table.hpp"
#include "thermal/grid.hpp"
#include "workload/kernels.hpp"

using namespace tadfa;

namespace {

// The paper's Sec. 4 flow, end to end.
constexpr const char* kDefaultPipeline =
    "alloc=linear:first_free,thermal-dfa,split-hot=1,spill-critical=1,"
    "alloc=coloring:coolest_first,schedule";
constexpr const char* kDefaultBaseline = "alloc=linear:first_free";

struct Options {
  std::string pipeline = kDefaultPipeline;
  std::string baseline = kDefaultBaseline;
  std::vector<std::string> inputs;
  std::vector<std::int64_t> args;
  bool args_given = false;
  double delta_k = 0.01;
  int max_iterations = 100;
  std::uint64_t seed = 42;
  unsigned jobs = 0;  // 0 = hardware_concurrency
  bool verify = true;
  bool maps = true;
  bool csv = false;
  bool analysis_stats = false;
  bool analysis_cache = true;
  std::string cache_dir;
  bool cache_stats = false;
  bool cache_verify = false;
  bool incremental = false;
  bool edit_aware = false;
  bool explain_invalidation = false;
  unsigned stage_every = 0;
  unsigned subdivision = 1;
  /// Empty = auto-detect per input (kernel name, .texpr extension, else
  /// .tir); a named frontend parses every input.
  std::string frontend;
  std::string machine = "default";
};

/// Parses an integer flag value into T, which must hold it and be at
/// least `lo`: a value that would narrow is a usage error, never a
/// silent wrap.
template <typename T>
std::optional<T> parse_flag_int(const std::string& text, long long lo) {
  long long n = 0;
  if (!parse_int(text, n) || n < lo ||
      static_cast<unsigned long long>(n) >
          static_cast<unsigned long long>(std::numeric_limits<T>::max())) {
    return std::nullopt;
  }
  return static_cast<T>(n);
}

/// Parses a floating-point flag value, which must lie in [lo, hi]. The
/// range test also rejects NaN and infinity, so no flag value can
/// silently switch a check off or overflow a time conversion.
std::optional<double> parse_flag_double(const std::string& text, double lo,
                                        double hi) {
  double v = 0;
  if (!parse_double(text, v) || !(v >= lo && v <= hi)) {
    return std::nullopt;
  }
  return v;
}

/// --delta is finite and > 0 (denorm_min is the least positive double).
constexpr double kMinDelta = std::numeric_limits<double>::denorm_min();
constexpr double kMaxDelta = std::numeric_limits<double>::max();
/// Ceiling on every seconds-valued flag: it keeps each time_t and
/// steady_clock conversion of the value in range.
constexpr double kMaxFlagSeconds = 1e6;

/// Whether every registered machine can build its thermal grid at this
/// subdivision. serve builds machines lazily with the same subdivision,
/// so the bound must hold for all of them, not only the selected one.
bool subdivision_fits_every_machine(long long subdivision) {
  if (subdivision < 1) {
    return false;
  }
  const auto s = static_cast<std::uint64_t>(subdivision);
  for (const machine::MachineConfig& mc :
       machine::default_machine_registry().entries()) {
    if (!thermal::ThermalGrid::supports(mc.rf, s)) {
      return false;
    }
  }
  return true;
}

void print_frontends() {
  TextTable table("available frontends");
  table.set_header({"frontend", "description"});
  for (const auto& fe : frontend::default_frontend_registry().entries()) {
    table.add_row({fe->name(), fe->describe()});
  }
  table.print(std::cout);
}

void print_machines() {
  TextTable table("available machines");
  table.set_header({"machine", "registers", "banks", "description"});
  for (const machine::MachineConfig& mc :
       machine::default_machine_registry().entries()) {
    table.add_row({mc.name, std::to_string(mc.rf.num_registers),
                   std::to_string(mc.rf.banks), mc.description});
  }
  table.print(std::cout);
}

void print_usage(std::ostream& os, const char* argv0) {
  os
      << "usage: " << argv0 << " [options] <kernel-name | file.tir>...\n"
      << "       " << argv0
      << " serve  [--socket=PATH] [--tcp=HOST:PORT] [serve options]\n"
      << "       " << argv0
      << " client (--socket=PATH | --tcp=HOST:PORT) [client options] "
         "<kernel-name | file.tir>...\n"
      << "  --pipeline=SPEC   pass pipeline (default: the Sec. 4 flow)\n"
      << "  --baseline=SPEC   comparison pipeline (default "
      << kDefaultBaseline << "; 'none' disables)\n"
      << "  --frontend=NAME   parse every input with a named frontend\n"
      << "                    (default: auto-detect — kernel name, .texpr\n"
      << "                    extension, else .tir)\n"
      << "  --machine=NAME    named machine config to compile for\n"
      << "                    (default 'default'; --list-machines)\n"
      << "  --args=N,N,...    kernel arguments (default: the kernel's own)\n"
      << "  --delta=K         thermal-DFA convergence threshold\n"
      << "  --max-iters=N     thermal-DFA iteration cap\n"
      << "  --subdivision=N   thermal grid points per cell edge (default 1)\n"
      << "  --seed=N          assignment-policy seed\n"
      << "  --jobs=N          compile module functions on N worker threads\n"
      << "                    (default: hardware concurrency; several inputs\n"
      << "                    or a multi-function file form one module)\n"
      << "  --no-verify       disable between-pass verifier checkpoints\n"
      << "  --no-map          skip the heatmaps\n"
      << "  --csv             emit tables as CSV\n"
      << "  --analysis-stats  dump per-analysis cache hits/misses after the "
         "run\n"
      << "  --no-analysis-cache  rebuild analyses on every request (A/B "
         "baseline)\n"
      << "  --cache-dir=DIR   persistent result cache for module compiles\n"
      << "  --cache-stats     dump result-cache hit/miss/evict counters\n"
      << "  --incremental     resume module compiles from cached pass-boundary\n"
      << "                    snapshots (needs --cache-dir)\n"
      << "  --stage-every=N   also snapshot after every N-th pass\n"
      << "                    (implies --incremental)\n"
      << "  --cache-verify    recompile one cached hit and diff it against\n"
      << "                    the cache (exit 1 on mismatch)\n"
      << "  --edit-aware      diff the module against its cached dependency\n"
      << "                    graph; only edited functions and their\n"
      << "                    transitive dependents recompile (needs\n"
      << "                    --cache-dir)\n"
      << "  --explain-invalidation  print why each function was (or was not)\n"
      << "                    invalidated, with the dependency path walked\n"
      << "                    (implies --edit-aware)\n"
      << "  --list-passes     available passes\n"
      << "  --list-kernels    available kernels\n"
      << "  --list-frontends  available frontends\n"
      << "  --list-machines   available machine configs\n"
      << "  --help            print this help and exit\n";
}

int usage(const char* argv0) {
  print_usage(std::cerr, argv0);
  return 2;
}

struct Measured {
  thermal::MapStats stats;
  std::vector<double> temps_k;
  std::uint64_t cycles = 0;
  std::optional<std::int64_t> result;
  bool ok = false;
  std::string trap;
};

Measured measure(const machine::Floorplan& fp,
                 const pipeline::PipelineState& state,
                 const std::vector<std::int64_t>& args,
                 const std::function<void(std::vector<std::int64_t>&)>& init) {
  Measured m;
  const machine::TimingModel timing;
  sim::Interpreter interp(state.func, timing);
  if (init) {
    init(interp.memory());
  }
  power::AccessTrace trace(fp.num_registers());
  const auto run = interp.run_traced(args, *state.assignment(), trace);
  if (!run.ok()) {
    m.trap = run.trap.value_or("?");
    return m;
  }
  const thermal::ThermalGrid grid(fp);
  const power::PowerModel power(fp.config());
  const sim::ThermalReplay replay(grid, power);
  sim::ReplayConfig cfg;
  cfg.max_repeats = 60;
  if (state.gating() != nullptr) {
    cfg.gated_banks = state.gating()->gated;
  }
  const auto r = replay.replay(trace, cfg);
  m.stats = r.final_stats;
  m.temps_k = r.final_reg_temps;
  m.cycles = run.cycles;
  m.result = run.return_value;
  m.ok = true;
  return m;
}

void print_table(const TextTable& table, bool csv) {
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << '\n';
}

/// The original one-shot compile path (no subcommand).
int run_compile(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const std::string& prefix) -> std::optional<std::string> {
      if (starts_with(arg, prefix)) {
        return arg.substr(prefix.size());
      }
      return std::nullopt;
    };
    if (arg == "--help") {
      print_usage(std::cout, argv[0]);
      return 0;
    }
    if (arg == "--list-passes") {
      TextTable table("available passes");
      table.set_header({"pass", "description"});
      for (const auto& entry : pipeline::default_registry().entries()) {
        table.add_row({entry.name, entry.help});
      }
      table.print(std::cout);
      return 0;
    }
    if (arg == "--list-kernels") {
      for (const auto& kernel : workload::standard_suite()) {
        std::cout << kernel.name << '\n';
      }
      return 0;
    }
    if (arg == "--list-frontends") {
      print_frontends();
      return 0;
    }
    if (arg == "--list-machines") {
      print_machines();
      return 0;
    }
    if (arg == "--no-verify") {
      opt.verify = false;
    } else if (arg == "--analysis-stats") {
      opt.analysis_stats = true;
    } else if (arg == "--no-analysis-cache") {
      opt.analysis_cache = false;
    } else if (arg == "--cache-stats") {
      opt.cache_stats = true;
    } else if (arg == "--cache-verify") {
      opt.cache_verify = true;
    } else if (auto v = value("--cache-dir=")) {
      opt.cache_dir = *v;
    } else if (arg == "--incremental") {
      opt.incremental = true;
    } else if (arg == "--edit-aware") {
      opt.edit_aware = true;
    } else if (arg == "--explain-invalidation") {
      opt.edit_aware = true;
      opt.explain_invalidation = true;
    } else if (auto v = value("--stage-every=")) {
      const auto n = parse_flag_int<unsigned>(*v, 1);
      if (!n) {
        return usage(argv[0]);
      }
      opt.incremental = true;
      opt.stage_every = *n;
    } else if (arg == "--no-map") {
      opt.maps = false;
    } else if (arg == "--csv") {
      opt.csv = true;
    } else if (auto v = value("--pipeline=")) {
      opt.pipeline = *v;
    } else if (auto v = value("--baseline=")) {
      opt.baseline = *v;
    } else if (auto v = value("--frontend=")) {
      opt.frontend = *v;
    } else if (auto v = value("--machine=")) {
      opt.machine = *v;
    } else if (auto v = value("--args=")) {
      opt.args.clear();
      opt.args_given = true;
      for (const std::string& field : split(*v, ',')) {
        long long n = 0;
        if (!parse_int(trim(field), n)) {
          std::cerr << "bad --args value '" << field << "'\n";
          return 2;
        }
        opt.args.push_back(n);
      }
    } else if (auto v = value("--delta=")) {
      const auto delta = parse_flag_double(*v, kMinDelta, kMaxDelta);
      if (!delta) {
        return usage(argv[0]);
      }
      opt.delta_k = *delta;
    } else if (auto v = value("--max-iters=")) {
      const auto n = parse_flag_int<int>(*v, 1);
      if (!n) {
        return usage(argv[0]);
      }
      opt.max_iterations = *n;
    } else if (auto v = value("--seed=")) {
      long long n = 0;
      if (!parse_int(*v, n) || n < 0) {
        return usage(argv[0]);
      }
      opt.seed = static_cast<std::uint64_t>(n);
    } else if (auto v = value("--jobs=")) {
      const auto n = parse_flag_int<unsigned>(*v, 0);
      if (!n) {
        return usage(argv[0]);
      }
      opt.jobs = *n;
    } else if (auto v = value("--subdivision=")) {
      long long n = 0;
      if (!parse_int(*v, n) || !subdivision_fits_every_machine(n)) {
        return usage(argv[0]);
      }
      opt.subdivision = static_cast<unsigned>(n);
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else {
      opt.inputs.push_back(arg);
    }
  }
  if (opt.inputs.empty()) {
    return usage(argv[0]);
  }

  const frontend::Frontend* forced = nullptr;
  if (!opt.frontend.empty()) {
    forced = frontend::find_frontend(opt.frontend);
    if (forced == nullptr) {
      std::cerr << "unknown frontend '" << opt.frontend
                << "' (--list-frontends shows them)\n";
      return 2;
    }
  }

  // Resolve every input — named kernel first, source file second — into
  // one module. A single-kernel invocation keeps the kernel's run
  // metadata (args, memory init, expected result) for the measurement
  // path. Without --frontend, each file picks its frontend by extension
  // (.texpr, else .tir); with it, the named frontend parses everything,
  // and a non-file token is handed to the frontend as source text (how
  // `--frontend=kernels "mixed:functions=8"` works).
  ir::Module module;
  workload::Kernel kernel;
  bool have_kernel_meta = false;
  for (const std::string& input : opt.inputs) {
    if (forced == nullptr) {
      if (auto named = workload::make_kernel(input)) {
        if (!have_kernel_meta) {
          kernel = *named;
          have_kernel_meta = true;
        }
        module.add_function(std::move(named->func));
        continue;
      }
    }
    std::string source;
    bool from_file = false;
    {
      std::ifstream in(input);
      if (in) {
        std::ostringstream buffer;
        buffer << in.rdbuf();
        source = buffer.str();
        from_file = true;
      }
    }
    const frontend::Frontend* fe = forced;
    if (fe == nullptr) {
      if (!from_file) {
        std::cerr << "'" << input
                  << "' is neither a known kernel nor a readable file "
                     "(--list-kernels shows the kernels)\n";
        return 1;
      }
      fe = frontend::find_frontend(ends_with(input, ".texpr") ? "texpr"
                                                              : "tir");
    } else if (!from_file) {
      source = input;
    }
    frontend::ParseResult parsed = fe->parse(source);
    if (!parsed.ok()) {
      std::cerr << input << ": " << parsed.diagnostics_text() << "\n";
      return 1;
    }
    if (!have_kernel_meta && fe->name() == "kernels") {
      // A lone kernel name keeps its run metadata, as on the
      // auto-detected path.
      if (auto named = workload::make_kernel(std::string(trim(source)))) {
        kernel = *named;
        have_kernel_meta = true;
      }
    }
    for (ir::Function& f : parsed.module->functions()) {
      module.add_function(std::move(f));
    }
    for (const ir::ModuleReference& r : parsed.module->references()) {
      module.add_reference(r.from, r.to);
    }
  }
  if (module.empty()) {
    std::cerr << "no functions to compile\n";
    return 1;
  }
  if (const auto issues = ir::verify(module); !issues.empty()) {
    std::cerr << "input module is malformed: " << issues.front().message
              << "\n";
    return 1;
  }
  const bool single = module.size() == 1;
  if (single && !have_kernel_meta) {
    kernel.name = module.functions().front().name();
    kernel.func = module.functions().front();
  }
  if (opt.args_given) {
    kernel.default_args = opt.args;
  }

  const machine::MachineConfig* mc = machine::find_machine(opt.machine);
  if (mc == nullptr) {
    std::cerr << "unknown machine '" << opt.machine
              << "' (--list-machines shows them)\n";
    return 2;
  }
  pipeline::RigOptions rig_options;
  rig_options.subdivision = opt.subdivision;
  rig_options.dfa_config.delta_k = opt.delta_k;
  rig_options.dfa_config.max_iterations = opt.max_iterations;
  rig_options.policy_seed = opt.seed;
  const pipeline::CompileRig rig(*mc, rig_options);
  const machine::Floorplan& fp = rig.floorplan();
  pipeline::PipelineContext ctx = rig.context();

  // Module mode: several inputs (or a multi-function file) go through the
  // multi-threaded driver; measurement/heatmaps are per-function concerns
  // and stay with the single-function path below.
  if (!single) {
    pipeline::CompilationDriver driver(ctx);
    driver.set_jobs(opt.jobs);
    driver.set_checkpoints(opt.verify);
    driver.set_analysis_caching(opt.analysis_cache);
    std::optional<pipeline::ResultCache> cache;
    if (!opt.cache_dir.empty()) {
      cache.emplace(opt.cache_dir);
      if (!cache->ok()) {
        std::cerr << cache->error() << "\n";
        return 1;
      }
      driver.set_result_cache(&*cache);
      if (opt.incremental) {
        pipeline::StagePolicy policy;
        policy.enabled = true;
        policy.every_k = opt.stage_every;
        driver.set_stage_policy(policy);
      }
      driver.set_edit_aware(opt.edit_aware);
    } else if (opt.cache_stats || opt.cache_verify) {
      std::cerr << "--cache-stats/--cache-verify need --cache-dir=DIR\n";
      return 2;
    } else if (opt.incremental) {
      std::cerr << "--incremental needs --cache-dir=DIR\n";
      return 2;
    } else if (opt.edit_aware) {
      std::cerr << "--edit-aware/--explain-invalidation need "
                   "--cache-dir=DIR\n";
      return 2;
    }
    const auto mod_run = driver.compile(module, opt.pipeline);
    if (mod_run.functions.empty()) {
      // Nothing compiled (spec rejected up front).
      std::cerr << "module compilation failed: " << mod_run.error << "\n";
      return 1;
    }
    print_table(mod_run.function_table("module — " +
                                       std::to_string(module.size()) +
                                       " functions, jobs=" +
                                       std::to_string(mod_run.jobs)),
                opt.csv);
    print_table(mod_run.stats_table("pipeline '" + opt.pipeline + "'"),
                opt.csv);
    if (opt.edit_aware) {
      if (mod_run.graph_degraded) {
        std::cout << "edit-aware: cached dependency graph unreadable; the "
                     "whole module recompiled conservatively\n";
      } else {
        std::cout << "edit-aware: " << mod_run.invalidated_by_edit()
                  << " edited, " << mod_run.invalidated_by_edge()
                  << " invalidated by dependency edges, "
                  << mod_run.cache_hits() << "/" << mod_run.functions.size()
                  << " served warm\n";
      }
      if (opt.explain_invalidation) {
        TextTable explain("invalidation — walked dependency edges");
        explain.set_header({"function", "reason", "via"});
        for (const pipeline::FunctionCompileResult& f : mod_run.functions) {
          explain.add_row({f.name, pipeline::to_string(f.reason),
                           f.invalidated_via.empty() ? "-"
                                                     : f.invalidated_via});
        }
        print_table(explain, opt.csv);
      }
    }
    if (opt.analysis_stats) {
      TextTable table("analysis cache (module)");
      table.set_header({"analysis", "hits", "misses", "puts", "invalidations"});
      for (const auto& s : mod_run.merged_analysis_stats()) {
        table.add_row({s.name, std::to_string(s.hits),
                       std::to_string(s.misses), std::to_string(s.puts),
                       std::to_string(s.invalidations)});
      }
      print_table(table, opt.csv);
    }
    if (opt.cache_stats && cache.has_value()) {
      print_table(cache->stats_table("result cache (" + opt.cache_dir + ")"),
                  opt.csv);
      std::cout << "module cache hits: " << mod_run.cache_hits() << "/"
                << mod_run.functions.size() << " ("
                << TextTable::num(mod_run.cache_hit_rate() * 100.0, 1)
                << "%)\n";
      if (opt.incremental) {
        std::cout << "prefix hits: " << mod_run.prefix_hits() << "/"
                  << mod_run.functions.size() << ", passes skipped: "
                  << mod_run.passes_skipped() << "\n";
      }
    }
    if (!mod_run.ok) {
      std::cerr << "module compilation failed: " << mod_run.error << "\n";
      return 1;
    }
    if (opt.cache_verify && cache.has_value()) {
      // Deterministic sample: the first function restored from the
      // cache is recompiled from scratch and diffed field by field
      // against what the cache returned.
      const pipeline::FunctionCompileResult* hit = nullptr;
      const ir::Function* input = nullptr;
      for (std::size_t i = 0; i < mod_run.functions.size(); ++i) {
        if (mod_run.functions[i].from_cache) {
          hit = &mod_run.functions[i];
          input = &module.functions()[i];
          break;
        }
      }
      if (hit == nullptr) {
        std::cout << "cache-verify: no cached hit in this run (cold cache)\n";
      } else {
        pipeline::PassManager manager(ctx);
        manager.set_checkpoints(opt.verify);
        manager.set_analysis_caching(opt.analysis_cache);
        const auto fresh = manager.run(*input, opt.pipeline);
        std::string mismatch;
        if (!fresh.ok) {
          mismatch = "recompile failed: " + fresh.error;
        } else if (ir::to_string(fresh.state.func) !=
                   ir::to_string(hit->run.state.func)) {
          mismatch = "printed IR differs";
        } else if (ir::fingerprint(fresh.state.func) !=
                   ir::fingerprint(hit->run.state.func)) {
          mismatch = "fingerprint differs";
        } else if (fresh.state.spilled_regs != hit->run.state.spilled_regs) {
          mismatch = "spill count differs";
        } else if (const auto* a = fresh.state.assignment(),
                   *b = hit->run.state.assignment();
                   (a == nullptr) != (b == nullptr) ||
                   (a != nullptr && *a != *b)) {
          mismatch = "assignment differs";
        } else if (fresh.pass_stats.size() != hit->run.pass_stats.size()) {
          mismatch = "pass count differs";
        } else {
          for (std::size_t p = 0; p < fresh.pass_stats.size(); ++p) {
            const auto& a = fresh.pass_stats[p];
            const auto& b = hit->run.pass_stats[p];
            if (a.name != b.name || a.summary != b.summary ||
                a.changed != b.changed ||
                a.instructions_after != b.instructions_after ||
                a.vregs_after != b.vregs_after) {
              mismatch = "pass '" + a.name + "' statistics differ";
              break;
            }
          }
        }
        if (!mismatch.empty()) {
          std::cerr << "cache-verify FAILED on '" << hit->name
                    << "': " << mismatch << "\n";
          return 1;
        }
        std::cout << "cache-verify: '" << hit->name
                  << "' matches a fresh recompile\n";
      }
    }
    std::cout << "compiled " << module.size() << " functions in "
              << TextTable::num(mod_run.total_seconds * 1e3, 1) << " ms ("
              << TextTable::num(
                     static_cast<double>(module.size()) /
                         (mod_run.total_seconds > 0 ? mod_run.total_seconds
                                                    : 1e-12),
                     1)
              << " functions/sec on " << mod_run.jobs << " threads)\n";
    return 0;
  }

  if (!opt.cache_dir.empty() || opt.cache_stats || opt.cache_verify) {
    std::cerr << "note: the result cache applies to module compiles; a "
                 "single input uses the measurement path (pass several "
                 "inputs or a multi-function .tir)\n";
  }

  pipeline::PassManager manager(ctx);
  manager.set_checkpoints(opt.verify);
  manager.set_analysis_caching(opt.analysis_cache);

  const auto run = manager.run(kernel.func, opt.pipeline);
  if (!run.ok) {
    std::cerr << "pipeline failed: " << run.error << "\n";
    return 1;
  }
  print_table(pipeline::PassManager::stats_table(
                  run, "pipeline '" + opt.pipeline + "' on " + kernel.name),
              opt.csv);
  if (opt.analysis_stats) {
    print_table(run.state.analyses.stats_table("analysis cache"), opt.csv);
  }

  if (!run.state.has_assignment()) {
    std::cout << "(no assignment produced; add an alloc= pass to measure "
                 "thermal effect)\n";
    return 0;
  }

  // The interpreter needs one argument per parameter; a file input has
  // none unless --args supplies them.
  if (kernel.default_args.size() != kernel.func.params().size()) {
    std::cerr << "function '" << kernel.name << "' takes "
              << kernel.func.params().size() << " argument(s), got "
              << kernel.default_args.size()
              << "; pass one value per parameter with --args=N,N,...\n";
    return 1;
  }
  const Measured after =
      measure(fp, run.state, kernel.default_args, kernel.init_memory);
  if (!after.ok) {
    std::cerr << "pipeline output trapped: " << after.trap << "\n";
    return 1;
  }

  std::optional<Measured> before;
  if (opt.baseline != "none") {
    const auto base_run = manager.run(kernel.func, opt.baseline);
    if (!base_run.ok) {
      std::cerr << "baseline pipeline failed: " << base_run.error << "\n";
      return 1;
    }
    if (base_run.state.has_assignment()) {
      before =
          measure(fp, base_run.state, kernel.default_args, kernel.init_memory);
      if (!before->ok) {
        std::cerr << "baseline output trapped: " << before->trap << "\n";
        return 1;
      }
      if (before->result != after.result) {
        std::cerr << "SEMANTICS BROKEN: baseline returned "
                  << before->result.value_or(0) << ", pipeline returned "
                  << after.result.value_or(0) << "\n";
        return 1;
      }
    }
  }
  if (kernel.expected_result.has_value() &&
      after.result != kernel.expected_result) {
    std::cerr << "SEMANTICS BROKEN: expected " << *kernel.expected_result
              << ", got " << after.result.value_or(0) << "\n";
    return 1;
  }

  auto to_c = [](std::vector<double> v) {
    for (double& t : v) {
      t -= 273.15;
    }
    return v;
  };
  if (opt.maps && before.has_value()) {
    HeatmapOptions hm;
    hm.scale_min = std::min(before->stats.min_k, after.stats.min_k) - 273.15;
    hm.scale_max = std::max(before->stats.peak_k, after.stats.peak_k) - 273.15;
    render_heatmap_pair(std::cout, to_c(before->temps_k), to_c(after.temps_k),
                        fp.rows(), fp.cols(), "baseline", "pipeline", hm);
    std::cout << '\n';
  } else if (opt.maps) {
    render_heatmap(std::cout, to_c(after.temps_k), fp.rows(), fp.cols());
    std::cout << '\n';
  }

  TextTable table("measured steady state — " + kernel.name);
  table.set_header({"pipeline", "peak degC", "range K", "stddev K",
                    "max grad K", "cycles", "result"});
  auto row = [&](const std::string& name, const Measured& m) {
    table.add_row({name, TextTable::num(m.stats.peak_k - 273.15, 2),
                   TextTable::num(m.stats.range_k, 3),
                   TextTable::num(m.stats.stddev_k, 3),
                   TextTable::num(m.stats.max_gradient_k, 3),
                   std::to_string(m.cycles),
                   std::to_string(m.result.value_or(0))});
  };
  if (before.has_value()) {
    row(opt.baseline, *before);
  }
  row(opt.pipeline, after);
  print_table(table, opt.csv);
  return 0;
}

void print_serve_usage(std::ostream& os, const char* argv0) {
  os
      << "usage: " << argv0
      << " serve [--socket=PATH] [--tcp=HOST:PORT] [options]\n"
      << "  --socket=PATH        Unix-domain socket to listen on\n"
      << "  --tcp=HOST:PORT      TCP endpoint to listen on (port 0 binds an\n"
      << "                       ephemeral port, printed once bound); at\n"
      << "                       least one of --socket/--tcp is required,\n"
      << "                       both at once is fine\n"
      << "  --max-queue=N        admission control: requests allowed to wait\n"
      << "                       for the dispatcher (0 = unbounded); a\n"
      << "                       request hitting a full queue is answered\n"
      << "                       BUSY instead of queuing\n"
      << "  --io-timeout=S       per-connection read/write deadline (default\n"
      << "                       30; 0 disables the read deadline); a peer\n"
      << "                       stalling mid-frame gets a structured\n"
      << "                       timeout error\n"
      << "  --metrics-json=PATH  write the metrics snapshot to PATH (atomic\n"
      << "                       rename) every second and on drain\n"
      << "  --jobs=N             worker threads per module compile\n"
      << "                       (default: hardware concurrency)\n"
      << "  --pipeline=SPEC      pipeline for requests that send none\n"
      << "                       (default: the Sec. 4 flow)\n"
      << "  --cache-dir=DIR      shared persistent result cache\n"
      << "  --cache-max-bytes=N  cache size budget (0 = unbounded)\n"
      << "  --incremental        resume compiles from cached pass-boundary\n"
      << "                       snapshots (needs --cache-dir)\n"
      << "  --stage-every=N      also snapshot after every N-th pass\n"
      << "                       (implies --incremental)\n"
      << "  --metrics-every=SEC  print aggregate metrics every SEC seconds\n"
      << "  --delta=K            thermal-DFA convergence threshold\n"
      << "  --max-iters=N        thermal-DFA iteration cap\n"
      << "  --subdivision=N      thermal grid points per cell edge\n"
      << "  --machine=NAME       named machine config the server compiles\n"
      << "                       for by default (default 'default'; requests\n"
      << "                       may name any other registry machine)\n"
      << "  --seed=N             assignment-policy seed\n"
      << "  --help               print this help and exit\n"
      << "Stop with SIGINT/SIGTERM; in-flight requests drain first.\n";
}

int serve_usage(const char* argv0) {
  print_serve_usage(std::cerr, argv0);
  return 2;
}

/// `tadfa serve`: the compile pipeline as a persistent service.
int run_serve(const char* argv0, int argc, char** argv) {
  service::ServerConfig cfg;
  cfg.default_spec = kDefaultPipeline;
  double metrics_every = 0;
  std::string metrics_json_path;
  double delta_k = 0.01;
  int max_iterations = 100;
  std::uint64_t seed = 42;
  unsigned subdivision = 1;
  std::string machine_name = "default";
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const std::string& prefix) -> std::optional<std::string> {
      if (starts_with(arg, prefix)) {
        return arg.substr(prefix.size());
      }
      return std::nullopt;
    };
    long long n = 0;
    if (arg == "--help") {
      print_serve_usage(std::cout, argv0);
      return 0;
    }
    if (auto v = value("--socket=")) {
      cfg.socket_path = *v;
    } else if (auto v = value("--tcp=")) {
      std::string tcp_error;
      auto endpoint = service::parse_host_port(*v, &tcp_error);
      if (!endpoint.has_value()) {
        std::cerr << "bad --tcp value: " << tcp_error << "\n";
        return serve_usage(argv0);
      }
      cfg.tcp_host = endpoint->host;
      cfg.tcp_port = endpoint->port;
    } else if (auto v = value("--max-queue=")) {
      if (!parse_int(*v, n) || n < 0) {
        return serve_usage(argv0);
      }
      cfg.max_queue = static_cast<std::size_t>(n);
    } else if (auto v = value("--io-timeout=")) {
      const auto seconds = parse_flag_double(*v, 0, kMaxFlagSeconds);
      if (!seconds) {
        return serve_usage(argv0);
      }
      cfg.io_timeout_seconds = *seconds;
    } else if (auto v = value("--metrics-json=")) {
      metrics_json_path = *v;
    } else if (auto v = value("--pipeline=")) {
      cfg.default_spec = *v;
    } else if (auto v = value("--cache-dir=")) {
      cfg.cache_dir = *v;
    } else if (auto v = value("--cache-max-bytes=")) {
      if (!parse_int(*v, n) || n < 0) {
        return serve_usage(argv0);
      }
      cfg.cache_max_bytes = static_cast<std::uint64_t>(n);
    } else if (arg == "--incremental") {
      cfg.stage_policy.enabled = true;
    } else if (auto v = value("--stage-every=")) {
      const auto k = parse_flag_int<unsigned>(*v, 1);
      if (!k) {
        return serve_usage(argv0);
      }
      cfg.stage_policy.enabled = true;
      cfg.stage_policy.every_k = *k;
    } else if (auto v = value("--jobs=")) {
      const auto jobs = parse_flag_int<unsigned>(*v, 0);
      if (!jobs) {
        return serve_usage(argv0);
      }
      cfg.jobs = *jobs;
    } else if (auto v = value("--metrics-every=")) {
      const auto seconds = parse_flag_double(*v, 0, kMaxFlagSeconds);
      if (!seconds) {
        return serve_usage(argv0);
      }
      metrics_every = *seconds;
    } else if (auto v = value("--delta=")) {
      const auto delta = parse_flag_double(*v, kMinDelta, kMaxDelta);
      if (!delta) {
        return serve_usage(argv0);
      }
      delta_k = *delta;
    } else if (auto v = value("--max-iters=")) {
      const auto iters = parse_flag_int<int>(*v, 1);
      if (!iters) {
        return serve_usage(argv0);
      }
      max_iterations = *iters;
    } else if (auto v = value("--subdivision=")) {
      if (!parse_int(*v, n) || !subdivision_fits_every_machine(n)) {
        return serve_usage(argv0);
      }
      subdivision = static_cast<unsigned>(n);
    } else if (auto v = value("--machine=")) {
      machine_name = *v;
    } else if (auto v = value("--seed=")) {
      if (!parse_int(*v, n) || n < 0) {
        return serve_usage(argv0);
      }
      seed = static_cast<std::uint64_t>(n);
    } else {
      return serve_usage(argv0);
    }
  }
  if (cfg.socket_path.empty() && cfg.tcp_host.empty()) {
    return serve_usage(argv0);
  }
  if (cfg.stage_policy.enabled && cfg.cache_dir.empty()) {
    std::cerr << "--incremental needs --cache-dir=DIR\n";
    return 2;
  }

  const machine::MachineConfig* mc = machine::find_machine(machine_name);
  if (mc == nullptr) {
    std::cerr << "tadfa serve: unknown machine '" << machine_name
              << "' (tadfa --list-machines shows them)\n";
    return 2;
  }
  pipeline::RigOptions rig_options;
  rig_options.subdivision = subdivision;
  rig_options.dfa_config.delta_k = delta_k;
  rig_options.dfa_config.max_iterations = max_iterations;
  rig_options.policy_seed = seed;
  const pipeline::CompileRig rig(*mc, rig_options);
  pipeline::PipelineContext ctx = rig.context();

  // Block the shutdown signals before any thread exists so every server
  // thread inherits the mask; only this thread's sigtimedwait consumes
  // them, which is what makes the drain graceful.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  service::CompileServer server(ctx, cfg);
  if (!server.start()) {
    std::cerr << "tadfa serve: " << server.error() << "\n";
    return 1;
  }
  std::string listening;
  if (!cfg.socket_path.empty()) {
    listening = cfg.socket_path;
  }
  if (!cfg.tcp_host.empty()) {
    if (!listening.empty()) {
      listening += " and ";
    }
    listening +=
        "tcp:" + cfg.tcp_host + ":" + std::to_string(server.tcp_port());
  }
  std::cout << "tadfa serve: listening on " << listening << " (jobs="
            << (cfg.jobs == 0 ? std::string("auto")
                              : std::to_string(cfg.jobs))
            << (cfg.cache_dir.empty() ? std::string(", uncached")
                                      : ", cache=" + cfg.cache_dir)
            << (cfg.max_queue > 0
                    ? ", max-queue=" + std::to_string(cfg.max_queue)
                    : std::string())
            << ")\n"
            << std::flush;

  using Clock = std::chrono::steady_clock;
  auto last_metrics = Clock::now();
  std::string json_error;
  for (;;) {
    timespec tick{};
    tick.tv_sec = 1;
    const int sig = sigtimedwait(&signals, nullptr, &tick);
    if (sig == SIGINT || sig == SIGTERM) {
      std::cout << "tadfa serve: caught "
                << (sig == SIGINT ? "SIGINT" : "SIGTERM")
                << ", draining\n";
      break;
    }
    if (!metrics_json_path.empty() &&
        !server.write_metrics_json(metrics_json_path, &json_error)) {
      std::cerr << "tadfa serve: " << json_error << "\n";
    }
    if (metrics_every > 0 &&
        std::chrono::duration<double>(Clock::now() - last_metrics).count() >=
            metrics_every) {
      server.metrics_table().print(std::cout);
      std::cout << std::flush;
      last_metrics = Clock::now();
    }
  }
  server.shutdown();
  if (!metrics_json_path.empty() &&
      !server.write_metrics_json(metrics_json_path, &json_error)) {
    std::cerr << "tadfa serve: " << json_error << "\n";
  }
  server.metrics_table("compile server — final").print(std::cout);
  return 0;
}

void print_client_usage(std::ostream& os, const char* argv0) {
  os
      << "usage: " << argv0
      << " client (--socket=PATH | --tcp=HOST:PORT) [options] "
         "<kernel-name | file.tir>...\n"
      << "  --socket=PATH        server Unix-domain socket\n"
      << "  --tcp=HOST:PORT      server TCP endpoint; exactly\n"
      << "                       one of --socket/--tcp is required\n"
      << "  --busy-timeout=S     keep retrying a BUSY response with bounded\n"
      << "                       exponential backoff for S seconds (default\n"
      << "                       10; 0 = fail on the first BUSY)\n"
      << "  --pipeline=SPEC      pipeline spec (default: server's default)\n"
      << "  --frontend=NAME      language the request's module text is in\n"
      << "                       (default: auto-detect — texpr when every\n"
      << "                       file input ends in .texpr, else the\n"
      << "                       server's default, tir)\n"
      << "  --machine=NAME       named machine config to compile for\n"
      << "                       (default: the server's base machine)\n"
      << "  --no-verify          disable verifier checkpoints\n"
      << "  --no-analysis-cache  disable the analysis cache\n"
      << "  --min-hit-rate=P     exit 1 unless the response's cache hit\n"
      << "                       rate is at least P (0..1); CI warm gate\n"
      << "  --connect-timeout=S  keep retrying the connect with backoff for\n"
      << "                       S seconds (default 5; 0 = one attempt), so\n"
      << "                       a client raced against server startup wins\n"
      << "  --print-ir           dump each compiled function's IR\n"
      << "  --edit-aware         ask the server for dependency-edge\n"
      << "                       invalidation (per-function reasons in the\n"
      << "                       result table; needs a server-side cache)\n"
      << "  --explain-invalidation  print each function's invalidation\n"
      << "                       reason and the dependency path walked\n"
      << "                       (implies --edit-aware)\n"
      << "  --csv                emit tables as CSV\n"
      << "  --quiet              only errors and the summary line\n"
      << "  --help               print this help and exit\n";
}

int client_usage(const char* argv0) {
  print_client_usage(std::cerr, argv0);
  return 2;
}

/// `tadfa client`: submit kernels/files to a running server.
int run_client(const char* argv0, int argc, char** argv) {
  std::string socket_path;
  std::optional<service::TcpEndpoint> tcp;
  service::CompileRequest request;
  double min_hit_rate = -1;
  double connect_timeout = 5.0;
  double busy_timeout = 10.0;
  bool print_ir = false;
  bool explain_invalidation = false;
  bool csv = false;
  bool quiet = false;
  std::vector<std::string> inputs;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const std::string& prefix) -> std::optional<std::string> {
      if (starts_with(arg, prefix)) {
        return arg.substr(prefix.size());
      }
      return std::nullopt;
    };
    if (arg == "--help") {
      print_client_usage(std::cout, argv0);
      return 0;
    }
    if (auto v = value("--socket=")) {
      socket_path = *v;
    } else if (auto v = value("--tcp=")) {
      std::string tcp_error;
      tcp = service::parse_host_port(*v, &tcp_error);
      if (!tcp.has_value()) {
        std::cerr << "bad --tcp value: " << tcp_error << "\n";
        return client_usage(argv0);
      }
    } else if (auto v = value("--busy-timeout=")) {
      const auto seconds = parse_flag_double(*v, 0, kMaxFlagSeconds);
      if (!seconds) {
        return client_usage(argv0);
      }
      busy_timeout = *seconds;
    } else if (auto v = value("--pipeline=")) {
      request.spec = *v;
    } else if (auto v = value("--frontend=")) {
      request.frontend = *v;
    } else if (auto v = value("--machine=")) {
      request.machine = *v;
    } else if (arg == "--no-verify") {
      request.checkpoints = false;
    } else if (arg == "--no-analysis-cache") {
      request.analysis_cache = false;
    } else if (auto v = value("--min-hit-rate=")) {
      const auto rate = parse_flag_double(*v, 0, 1);
      if (!rate) {
        return client_usage(argv0);
      }
      min_hit_rate = *rate;
    } else if (auto v = value("--connect-timeout=")) {
      const auto seconds = parse_flag_double(*v, 0, kMaxFlagSeconds);
      if (!seconds) {
        return client_usage(argv0);
      }
      connect_timeout = *seconds;
    } else if (arg == "--print-ir") {
      print_ir = true;
    } else if (arg == "--edit-aware") {
      request.edit_aware = true;
    } else if (arg == "--explain-invalidation") {
      request.edit_aware = true;
      explain_invalidation = true;
    } else if (arg == "--csv") {
      csv = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return client_usage(argv0);
    } else {
      inputs.push_back(arg);
    }
  }
  if (socket_path.empty() == !tcp.has_value() || inputs.empty()) {
    return client_usage(argv0);
  }

  // Named kernels travel by name (the server owns the suite); files
  // travel as source text in the request's frontend language. All of a
  // request's module text is one source, so its files must agree on a
  // language: without --frontend, texpr is inferred only when every file
  // input ends in .texpr.
  std::size_t file_inputs = 0;
  std::size_t texpr_inputs = 0;
  for (const std::string& input : inputs) {
    if (workload::make_kernel(input).has_value()) {
      request.kernels.push_back(input);
      continue;
    }
    std::ifstream in(input);
    if (!in) {
      std::cerr << "'" << input
                << "' is neither a known kernel nor a readable file\n";
      return 1;
    }
    ++file_inputs;
    if (ends_with(input, ".texpr")) {
      ++texpr_inputs;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    request.module_text += buffer.str();
    request.module_text += '\n';
  }
  if (request.frontend.empty() && file_inputs > 0) {
    if (texpr_inputs == file_inputs) {
      request.frontend = "texpr";
    } else if (texpr_inputs > 0) {
      std::cerr << "tadfa client: inputs mix .texpr and other files; pass "
                   "--frontend=NAME to pick one language\n";
      return 2;
    }
  }

  std::string error;
  int fd = service::connect_with_retry(
      [&] {
        return tcp.has_value()
                   ? service::connect_tcp(tcp->host, tcp->port, &error)
                   : service::connect_unix(socket_path, &error);
      },
      connect_timeout);
  if (fd < 0) {
    std::cerr << "tadfa client: " << error << "\n";
    return 1;
  }

  // BUSY means the server shed the request at admission; it is a purely
  // transient state, so retry with bounded exponential backoff until
  // the budget runs out (the last BUSY response is then reported).
  using Clock = std::chrono::steady_clock;
  const auto busy_deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(busy_timeout));
  double backoff_ms = 10;
  std::optional<service::CompileResponse> response;
  for (;;) {
    response.reset();
    if (service::write_request(fd, request, &error)) {
      response = service::read_response(fd, &error);
    }
    if (!response.has_value() || response->ok ||
        response->code != service::ResponseCode::kBusy ||
        Clock::now() >= busy_deadline) {
      break;
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(backoff_ms));
    backoff_ms = std::min(backoff_ms * 2, 500.0);
  }
  if (fd >= 0) {
    ::close(fd);
  }
  if (!response.has_value()) {
    std::cerr << "tadfa client: " << error << "\n";
    return 1;
  }
  if (!response->error.empty()) {
    std::cerr << "tadfa client: server "
              << (response->code == service::ResponseCode::kBusy ? "busy"
                                                                 : "error")
              << ": " << response->error << "\n";
  }

  if (!quiet) {
    TextTable table("server compile — " +
                    std::to_string(response->functions.size()) +
                    " functions");
    std::vector<std::string> header = {"#",      "function", "ok",
                                       "cached", "ms",       "instrs",
                                       "vregs",  "spills"};
    if (request.edit_aware) {
      header.push_back("reason");
    }
    table.set_header(header);
    for (std::size_t i = 0; i < response->functions.size(); ++i) {
      const service::FunctionResult& f = response->functions[i];
      std::vector<std::string> row = {
          std::to_string(i + 1), f.name, f.ok ? "yes" : "NO",
          f.from_cache ? "yes" : "no", TextTable::num(f.seconds * 1e3, 3),
          std::to_string(f.instructions), std::to_string(f.vregs),
          std::to_string(f.spilled_regs)};
      if (request.edit_aware) {
        row.push_back(pipeline::to_string(f.invalidation));
      }
      table.add_row(row);
    }
    print_table(table, csv);
    if (explain_invalidation) {
      TextTable explain("invalidation — walked dependency edges");
      explain.set_header({"function", "reason", "via"});
      for (const service::FunctionResult& f : response->functions) {
        explain.add_row({f.name, pipeline::to_string(f.invalidation),
                         f.invalidated_via.empty() ? "-"
                                                   : f.invalidated_via});
      }
      print_table(explain, csv);
    }
    if (!response->pass_stats.empty()) {
      TextTable stats("pipeline (merged over request)");
      stats.set_header({"#", "pass", "ms", "instrs", "vregs", "summary"});
      for (std::size_t i = 0; i < response->pass_stats.size(); ++i) {
        const pipeline::PassRunStats& s = response->pass_stats[i];
        stats.add_row({std::to_string(i + 1), s.name,
                       TextTable::num(s.seconds * 1e3, 3),
                       std::to_string(s.instructions_after),
                       std::to_string(s.vregs_after), s.summary});
      }
      print_table(stats, csv);
    }
  }
  if (print_ir) {
    for (const service::FunctionResult& f : response->functions) {
      std::cout << f.printed << "\n";
    }
  }
  std::cout << "compiled " << response->functions.size()
            << " functions via server in "
            << TextTable::num(response->server_seconds * 1e3, 1)
            << " ms, cache hits " << response->cache_hits() << "/"
            << response->functions.size() << " ("
            << TextTable::num(response->cache_hit_rate() * 100.0, 1)
            << "%)\n";
  if (response->passes_skipped() > 0) {
    std::cout << "prefix hits " << response->prefix_hits() << "/"
              << response->functions.size() << ", passes skipped "
              << response->passes_skipped() << "\n";
  }
  if (!response->ok) {
    return 1;
  }
  if (min_hit_rate >= 0 && response->cache_hit_rate() < min_hit_rate) {
    std::cerr << "tadfa client: cache hit rate "
              << TextTable::num(response->cache_hit_rate() * 100.0, 1)
              << "% is below the required "
              << TextTable::num(min_hit_rate * 100.0, 1) << "%\n";
    return 1;
  }
  return 0;
}

/// Dispatches subcommands; exceptions are caught by main().
int tadfa_main(int argc, char** argv) {
  if (argc >= 2) {
    const std::string subcommand = argv[1];
    // Deliberate failure path exercised by the CLI subprocess test: an
    // exception thrown from anywhere under tadfa_main must surface as
    // "tadfa: error: ..." with exit 1, never as std::terminate.
    if (subcommand == "--self-test-throw") {
      throw std::runtime_error("self-test exception");
    }
    if (subcommand == "serve") {
      return run_serve(argv[0], argc - 2, argv + 2);
    }
    if (subcommand == "client") {
      return run_client(argv[0], argc - 2, argv + 2);
    }
  }
  return run_compile(argc, argv);
}

}  // namespace

int main(int argc, char** argv) {
  // Last-resort handler: any exception that escapes the command paths
  // (a std::filesystem_error from a cache directory, a bad_alloc, a
  // parser bug) becomes a diagnostic and exit 1 — without this, the
  // process dies in std::terminate with no message at all.
  try {
    return tadfa_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "tadfa: error: " << e.what() << "\n";
    return 1;
  } catch (...) {
    std::cerr << "tadfa: error: unknown non-standard exception\n";
    return 1;
  }
}
