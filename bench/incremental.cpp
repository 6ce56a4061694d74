// INCREMENTAL — pass-boundary stage cache: spec-extension speedup.
//
// The incremental-compilation story (ISSUE 6): a module compiled under
// spec S leaves pass-boundary snapshots in the result cache; recompiling
// under an *extended* spec S+",schedule" restores each function at the
// deepest shared boundary and runs only the new tail. This bench
// measures that, with three phases through pipeline::CompilationDriver
// (stage policy enabled throughout so all phases share one keying):
//
//   cold       S          against an empty cache (stores stage entries)
//   extension  S+tail     against that cache (longest-prefix restore)
//   cold-ext   S+tail     against a second empty cache (the reference)
//
// and gates on the guarantees the CI bench-smoke job enforces:
//   * the extension output is byte-identical to cold-ext in every
//     deterministic field;
//   * >=90% of the prefix passes are skipped on the extension run;
//   * the extension run is >=5x faster than cold-ext (the DFA and both
//     allocators live in the skipped prefix).
//
// With --json=PATH the headline numbers are written as the repo's
// benchmark artifact:
//
//   {"bench": ..., "config": {<inputs>}, "measured": {<phase seconds>},
//    "extension_speedup": <x>, "prefix_skip_rate": <0..1>,
//    "git_sha": ...}
//
//   bench_incremental [--functions=N] [--jobs=N] [--cache-dir=DIR]
//                     [--json=PATH] [--git-sha=SHA] [--csv]
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ir/printer.hpp"
#include "pipeline/driver.hpp"
#include "pipeline/result_cache.hpp"
#include "support/string_utils.hpp"
#include "workload/modules.hpp"

using namespace tadfa;

namespace {

// The expensive prefix: thermal DFA plus both allocation passes — the
// work an extension run reuses from the stage cache...
constexpr const char* kPrefixSpec =
    "cse,dce,alloc=linear:first_free,thermal-dfa,"
    "alloc=coloring:coolest_first";
// ...and the extension whose tail (schedule) is all that should run.
constexpr const char* kExtendedSpec =
    "cse,dce,alloc=linear:first_free,thermal-dfa,"
    "alloc=coloring:coolest_first,schedule";
constexpr std::size_t kPrefixLen = 5;

constexpr std::uint64_t kSeed = 7;

struct Snapshot {
  std::vector<std::string> printed;
  std::vector<std::uint64_t> fingerprints;
  std::vector<std::uint32_t> spills;
  std::vector<pipeline::PassRunStats> merged;
};

Snapshot snapshot(const pipeline::ModulePipelineResult& result) {
  Snapshot s;
  for (const auto& f : result.functions) {
    s.printed.push_back(ir::to_string(f.run.state.func));
    s.fingerprints.push_back(ir::fingerprint(f.run.state.func));
    s.spills.push_back(f.run.state.spilled_regs);
  }
  s.merged = result.merged_pass_stats();
  return s;
}

/// Byte-identical in every deterministic field (seconds excepted).
bool identical(const Snapshot& a, const Snapshot& b) {
  if (a.printed != b.printed || a.fingerprints != b.fingerprints ||
      a.spills != b.spills || a.merged.size() != b.merged.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.merged.size(); ++i) {
    const auto& x = a.merged[i];
    const auto& y = b.merged[i];
    if (x.name != y.name || x.summary != y.summary ||
        x.changed != y.changed ||
        x.instructions_after != y.instructions_after ||
        x.vregs_after != y.vregs_after) {
      return false;
    }
  }
  return true;
}

using bench::json_escape;

}  // namespace

int main(int argc, char** argv) {
  std::size_t functions = 200;
  unsigned jobs = 0;  // hardware concurrency
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
  // The bench owns (and wipes) namespaced subdirectories so cold runs
  // are actually cold — never the caller's directory itself.
  namespace fs = std::filesystem;
  const fs::path root =
      cache_dir.empty() ? fs::temp_directory_path() : fs::path(cache_dir);
  const fs::path warm_dir = root / "tadfa-incremental-cache";
  const fs::path cold_dir = root / "tadfa-incremental-cache-cold";
  std::error_code ec;
  fs::remove_all(warm_dir, ec);
  fs::remove_all(cold_dir, ec);

  workload::ModuleConfig mcfg;
  mcfg.functions = functions;
  mcfg.seed = kSeed;
  const ir::Module module = workload::make_mixed_module(mcfg);

  bench::Rig rig;
  pipeline::PipelineContext ctx;
  ctx.floorplan = &rig.fp;
  ctx.grid = &rig.grid;
  ctx.power = &rig.power;

  pipeline::StagePolicy policy;
  policy.enabled = true;

  pipeline::ResultCache warm_cache(warm_dir.string());
  pipeline::ResultCache cold_cache(cold_dir.string());
  if (!warm_cache.ok() || !cold_cache.ok()) {
    std::cerr << (warm_cache.ok() ? cold_cache.error() : warm_cache.error())
              << "\n";
    return 1;
  }

  struct Phase {
    const char* name;
    const char* spec;
    pipeline::ResultCache* cache;
    double seconds = 0;
    std::size_t prefix_hits = 0;
    std::size_t passes_skipped = 0;
    Snapshot snap;
  };
  Phase phases[] = {{"cold", kPrefixSpec, &warm_cache},
                    {"extension", kExtendedSpec, &warm_cache},
                    {"cold-ext", kExtendedSpec, &cold_cache}};
  for (Phase& phase : phases) {
    pipeline::CompilationDriver driver(ctx);
    driver.set_jobs(jobs);
    driver.set_result_cache(phase.cache);
    driver.set_stage_policy(policy);
    const auto result = driver.compile(module, phase.spec);
    if (!result.ok) {
      std::cerr << phase.name << " compile failed: " << result.error << "\n";
      return 1;
    }
    phase.seconds = result.total_seconds;
    phase.prefix_hits = result.prefix_hits();
    phase.passes_skipped = result.passes_skipped();
    phase.snap = snapshot(result);
  }

  const Phase& ext = phases[1];
  const Phase& cold_ext = phases[2];
  const double speedup =
      cold_ext.seconds / (ext.seconds > 0 ? ext.seconds : 1e-12);
  const double skip_rate =
      static_cast<double>(ext.passes_skipped) /
      static_cast<double>(kPrefixLen * functions);
  const bool ext_identical = identical(ext.snap, cold_ext.snap);

  TextTable table("incremental spec extension — " + std::to_string(functions) +
                  " functions, +schedule over: " + std::string(kPrefixSpec));
  table.set_header(
      {"phase", "wall s", "funcs/sec", "prefix hits", "passes skipped"});
  for (const Phase& phase : phases) {
    table.add_row({phase.name, TextTable::num(phase.seconds, 3),
                   TextTable::num(bench::per_sec(functions, phase.seconds), 1),
                   std::to_string(phase.prefix_hits),
                   std::to_string(phase.passes_skipped)});
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << "extension speedup over cold: " << TextTable::num(speedup, 1)
            << "x, prefix skip rate: " << TextTable::num(skip_rate * 100.0, 1)
            << "%, identical: " << (ext_identical ? "yes" : "NO") << "\n";

  if (!json_path.empty()) {
    std::ostringstream json;
    json << "{\n"
         << "  \"bench\": \"incremental\",\n"
         << "  \"config\": {\n"
         << "    \"functions\": " << functions << ",\n"
         << "    \"jobs\": " << jobs << ",\n"
         << "    \"seed\": " << kSeed << ",\n"
         << "    \"spec\": \"" << json_escape(kPrefixSpec) << "\",\n"
         << "    \"extended_spec\": \"" << json_escape(kExtendedSpec)
         << "\"\n"
         << "  },\n"
         << "  \"measured\": {\n"
         << "    \"cold_seconds\": " << phases[0].seconds << ",\n"
         << "    \"extension_seconds\": " << ext.seconds << ",\n"
         << "    \"cold_ext_seconds\": " << cold_ext.seconds << "\n"
         << "  },\n"
         << "  \"extension_speedup\": " << speedup << ",\n"
         << "  \"prefix_skip_rate\": " << skip_rate << ",\n"
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

  if (!ext_identical) {
    std::cerr << "DETERMINISM VIOLATED: extension output differs from a cold "
                 "run of the extended spec\n";
    return 1;
  }
  if (skip_rate < 0.9) {
    std::cerr << "STAGE CACHE INEFFECTIVE: only "
              << TextTable::num(skip_rate * 100.0, 1)
              << "% of prefix passes were skipped (floor: 90%)\n";
    return 1;
  }
  if (speedup < 5.0) {
    std::cerr << "STAGE CACHE TOO SLOW: extension speedup "
              << TextTable::num(speedup, 1) << "x is below the 5x floor\n";
    return 1;
  }
  return 0;
}
