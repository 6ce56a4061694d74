// INTERACTIVE EDIT — dependency-edge invalidation on resubmit.
//
// Models the interactive recompile loop: a mixed module (with module-level
// `ref` dependency edges) is compiled cold through an edit-aware
// pipeline::CompilationDriver, resubmitted unchanged (everything warm),
// then resubmitted with exactly ONE function edited (an immediate bumped —
// a fingerprint-changing, verifier-clean mutation). The gates:
//
//   - the edited resubmit recompiles exactly the edited function plus its
//     true transitive dependents (everything else restores warm),
//   - the warm fraction of the edited resubmit is at least 90%,
//   - the edited resubmit's output is byte-identical to a from-scratch
//     cold compile of the edited module, at --jobs 1 AND at --jobs N
//     (two pristine copies of the warm cache keep both runs honest).
//
// Exit 1 on any gate failure — the CI bench-smoke job runs this binary.
//
// With --json=PATH the headline numbers are written as the repo's
// benchmark artifact (higher is better):
//
//   {"bench": ..., "config": {<inputs>}, "measured": {"recompiled": N},
//    "functions_per_sec": <edited resubmit>,
//    "warm_fraction": <edited resubmit>, "git_sha": ...}
//
//   bench_interactive_edit [--functions=N] [--jobs=N] [--cache-dir=DIR]
//                          [--json=PATH] [--git-sha=SHA] [--csv]
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ir/printer.hpp"
#include "pipeline/dependency_graph.hpp"
#include "pipeline/driver.hpp"
#include "pipeline/result_cache.hpp"
#include "support/string_utils.hpp"
#include "workload/modules.hpp"

using namespace tadfa;

namespace {

// The warm/cold bench's Sec. 4 flavor: the thermal DFA dominates, so a
// spurious invalidation costs real time and a warm restore saves it.
constexpr const char* kSpec =
    "cse,dce,alloc=linear:first_free,thermal-dfa,"
    "alloc=coloring:coolest_first,schedule";

constexpr std::uint64_t kSeed = 7;

struct Snapshot {
  std::vector<std::string> printed;
  std::vector<std::uint64_t> fingerprints;
  std::vector<std::uint32_t> spills;
};

Snapshot snapshot(const pipeline::ModulePipelineResult& result) {
  Snapshot s;
  for (const auto& f : result.functions) {
    s.printed.push_back(ir::to_string(f.run.state.func));
    s.fingerprints.push_back(ir::fingerprint(f.run.state.func));
    s.spills.push_back(f.run.state.spilled_regs);
  }
  return s;
}

bool identical(const Snapshot& a, const Snapshot& b) {
  return a.printed == b.printed && a.fingerprints == b.fingerprints &&
         a.spills == b.spills;
}

/// Bumps the first immediate operand of `func` by one: the smallest
/// verifier-clean mutation that changes ir::fingerprint.
bool bump_first_immediate(ir::Function& func) {
  for (ir::BasicBlock& block : func.blocks()) {
    for (ir::Instruction& inst : block.instructions()) {
      for (ir::Operand& op : inst.operands()) {
        if (op.is_imm()) {
          op = ir::Operand::imm(op.imm() + 1);
          return true;
        }
      }
    }
  }
  return false;
}

std::size_t recompiled_count(const pipeline::ModulePipelineResult& result) {
  std::size_t n = 0;
  for (const auto& f : result.functions) {
    n += f.from_cache ? 0 : 1;
  }
  return n;
}

using bench::json_escape;

}  // namespace

int main(int argc, char** argv) {
  std::size_t functions = 40;
  unsigned jobs = 8;
  std::string cache_dir;
  std::string json_path;
  std::string git_sha;
  bool csv = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    long long n = 0;
    if (starts_with(arg, "--functions=") && parse_int(arg.substr(12), n) &&
        n > 0) {
      functions = static_cast<std::size_t>(n);
    } else if (starts_with(arg, "--jobs=") && parse_int(arg.substr(7), n) &&
               n >= 0) {
      jobs = static_cast<unsigned>(n);
    } else if (starts_with(arg, "--cache-dir=")) {
      cache_dir = arg.substr(12);
    } else if (starts_with(arg, "--json=")) {
      json_path = arg.substr(7);
    } else if (starts_with(arg, "--git-sha=")) {
      git_sha = arg.substr(10);
    } else if (arg == "--csv") {
      csv = true;
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--functions=N] [--jobs=N] [--cache-dir=DIR]"
                   " [--json=PATH] [--git-sha=SHA] [--csv]\n";
      return 2;
    }
  }
  if (git_sha.empty()) {
    const char* env = std::getenv("GITHUB_SHA");
    git_sha = env != nullptr ? env : "unknown";
  }
  namespace fs = std::filesystem;
  const fs::path root =
      cache_dir.empty() ? fs::temp_directory_path() : fs::path(cache_dir);
  // The bench owns (and wipes) namespaced subdirectories so the cold run
  // is actually cold — never the caller's directory itself.
  const fs::path warm_dir = root / "tadfa-interactive-cache";
  const fs::path copy_dir = root / "tadfa-interactive-cache-copy";
  std::error_code ec;
  fs::remove_all(warm_dir, ec);
  fs::remove_all(copy_dir, ec);

  workload::ModuleConfig mcfg;
  mcfg.functions = functions;
  mcfg.seed = kSeed;
  const ir::Module module = workload::make_mixed_module(mcfg);

  // The edit target: the function with at least one transitive dependent
  // and the FEWEST of them (ties by name) — a realistic local edit whose
  // blast radius the graph should bound tightly.
  const auto graph = pipeline::DependencyGraph::build(module);
  std::string edit_name;
  std::vector<std::string> dependents;
  for (const pipeline::DependencyNode& node : graph.nodes()) {
    auto deps = graph.dependents_of(node.name);
    if (deps.empty()) {
      continue;
    }
    if (edit_name.empty() || deps.size() < dependents.size() ||
        (deps.size() == dependents.size() && node.name < edit_name)) {
      edit_name = node.name;
      dependents = std::move(deps);
    }
  }
  if (edit_name.empty()) {
    std::cerr << "module has no dependency edges to exercise "
                 "(ref_every disabled?)\n";
    return 1;
  }

  ir::Module edited = module;
  ir::Function* target = edited.find(edit_name);
  if (target == nullptr || !bump_first_immediate(*target)) {
    std::cerr << "cannot edit '" << edit_name << "': no immediate operand\n";
    return 1;
  }

  bench::Rig rig;
  pipeline::PipelineContext ctx;
  ctx.floorplan = &rig.fp;
  ctx.grid = &rig.grid;
  ctx.power = &rig.power;

  // Reference output: the edited module compiled from scratch, uncached.
  pipeline::CompilationDriver reference(ctx);
  reference.set_jobs(1);
  const auto fresh = reference.compile(edited, kSpec);
  if (!fresh.ok) {
    std::cerr << "reference compile failed: " << fresh.error << "\n";
    return 1;
  }
  const Snapshot cold_snap = snapshot(fresh);

  pipeline::CompilationDriver driver(ctx);
  driver.set_jobs(jobs);
  pipeline::ResultCache cache(warm_dir.string());
  if (!cache.ok()) {
    std::cerr << cache.error() << "\n";
    return 1;
  }
  driver.set_result_cache(&cache);
  driver.set_edit_aware(true);

  // Phase 1+2: cold compile populates cache + graph; unchanged resubmit
  // must be fully warm.
  const auto cold = driver.compile(module, kSpec);
  if (!cold.ok) {
    std::cerr << "cold compile failed: " << cold.error << "\n";
    return 1;
  }
  const auto warm = driver.compile(module, kSpec);
  if (!warm.ok) {
    std::cerr << "warm resubmit failed: " << warm.error << "\n";
    return 1;
  }
  // A pristine copy of the warm cache lets the jobs=N edited resubmit run
  // against the same starting state as the jobs=1 one.
  fs::copy(warm_dir, copy_dir, fs::copy_options::recursive, ec);
  if (ec) {
    std::cerr << "cannot copy the warm cache: " << ec.message() << "\n";
    return 1;
  }

  struct Phase {
    const char* name;
    unsigned jobs;
    double seconds = 0;
    std::size_t recompiled = 0;
    std::size_t by_edge = 0;
    double warm_fraction = 0;
    bool identical = false;
  };
  Phase phases[] = {{"edited jobs=1", 1}, {"edited jobs=N", jobs}};
  for (std::size_t p = 0; p < 2; ++p) {
    pipeline::ResultCache phase_cache(
        (p == 0 ? warm_dir : copy_dir).string());
    if (!phase_cache.ok()) {
      std::cerr << phase_cache.error() << "\n";
      return 1;
    }
    pipeline::CompilationDriver editor(ctx);
    editor.set_jobs(phases[p].jobs);
    editor.set_result_cache(&phase_cache);
    editor.set_edit_aware(true);
    const auto result = editor.compile(edited, kSpec);
    if (!result.ok) {
      std::cerr << phases[p].name << " failed: " << result.error << "\n";
      return 1;
    }
    phases[p].seconds = result.total_seconds;
    phases[p].recompiled = recompiled_count(result);
    phases[p].by_edge = result.invalidated_by_edge();
    phases[p].warm_fraction = result.cache_hit_rate();
    phases[p].identical = identical(snapshot(result), cold_snap);
  }

  TextTable table("interactive edit — " + std::to_string(functions) +
                  " functions, edited '" + edit_name + "' (" +
                  std::to_string(dependents.size()) + " dependents)");
  table.set_header({"phase", "jobs", "wall s", "recompiled", "by edge",
                    "warm", "identical"});
  table.add_row({"cold", std::to_string(jobs),
                 TextTable::num(cold.total_seconds, 3),
                 std::to_string(recompiled_count(cold)), "0", "0.0%", "-"});
  table.add_row({"warm resubmit", std::to_string(jobs),
                 TextTable::num(warm.total_seconds, 3),
                 std::to_string(recompiled_count(warm)), "0",
                 TextTable::num(warm.cache_hit_rate() * 100.0, 1) + "%",
                 "-"});
  for (const Phase& phase : phases) {
    table.add_row({phase.name, std::to_string(phase.jobs),
                   TextTable::num(phase.seconds, 3),
                   std::to_string(phase.recompiled),
                   std::to_string(phase.by_edge),
                   TextTable::num(phase.warm_fraction * 100.0, 1) + "%",
                   phase.identical ? "yes" : "NO"});
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }

  const std::size_t expected = 1 + dependents.size();
  bool failed = false;
  if (recompiled_count(warm) != 0) {
    std::cerr << "WARM RESUBMIT RECOMPILED: " << recompiled_count(warm)
              << " functions recompiled without any edit\n";
    failed = true;
  }
  for (const Phase& phase : phases) {
    if (phase.recompiled != expected) {
      std::cerr << "OVER/UNDER-INVALIDATION (" << phase.name << "): "
                << phase.recompiled << " functions recompiled, expected "
                << expected << " (1 edited + " << dependents.size()
                << " dependents)\n";
      failed = true;
    }
    if (phase.by_edge != dependents.size()) {
      std::cerr << "EDGE MISCOUNT (" << phase.name << "): " << phase.by_edge
                << " invalidated by edge, expected " << dependents.size()
                << "\n";
      failed = true;
    }
    if (phase.warm_fraction < 0.9) {
      std::cerr << "WARM FRACTION (" << phase.name << "): "
                << TextTable::num(phase.warm_fraction * 100.0, 1)
                << "% is below the 90% floor\n";
      failed = true;
    }
    if (!phase.identical) {
      std::cerr << "DETERMINISM VIOLATED (" << phase.name
                << "): edited resubmit differs from a from-scratch compile "
                   "of the edited module\n";
      failed = true;
    }
  }

  const Phase& headline = phases[1];
  std::cout << "edited resubmit recompiled " << headline.recompiled << "/"
            << functions << " functions ("
            << TextTable::num(headline.warm_fraction * 100.0, 1)
            << "% warm)\n";
  if (!json_path.empty()) {
    std::ostringstream json;
    json << "{\n"
         << "  \"bench\": \"interactive_edit\",\n"
         << "  \"config\": {\n"
         << "    \"functions\": " << functions << ",\n"
         << "    \"jobs\": " << headline.jobs << ",\n"
         << "    \"seed\": " << kSeed << ",\n"
         << "    \"spec\": \"" << json_escape(kSpec) << "\",\n"
         << "    \"edited\": \"" << json_escape(edit_name) << "\",\n"
         << "    \"dependents\": " << dependents.size() << "\n"
         << "  },\n"
         << "  \"measured\": {\n"
         << "    \"recompiled\": " << headline.recompiled << "\n"
         << "  },\n"
         << "  \"functions_per_sec\": "
         << bench::per_sec(functions, headline.seconds) << ",\n"
         << "  \"warm_fraction\": " << headline.warm_fraction << ",\n"
         << "  \"git_sha\": \"" << json_escape(git_sha) << "\"\n"
         << "}\n";
    std::ofstream out(json_path, std::ios::trunc);
    out << json.str();
    if (!out.good()) {
      std::cerr << "cannot write " << json_path << "\n";
      return 1;
    }
    std::cout << "wrote " << json_path << "\n";
  }
  return failed ? 1 : 0;
}
