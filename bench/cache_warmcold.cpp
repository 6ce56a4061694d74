// WARM/COLD — persistent result-cache throughput.
//
// Compiles a mixed module twice through pipeline::CompilationDriver with
// a pipeline::ResultCache attached: once against an empty cache (cold —
// every function runs the full Sec. 4 pipeline and is persisted) and
// again against the populated cache (warm — every function should be
// restored without running a single pass). Reports functions/sec for
// both, the warm hit rate, and re-asserts the cross-process determinism
// guarantee: the warm result must be byte-identical to the cold one at
// --jobs 1 *and* at the configured job count (exit 1 otherwise — the CI
// bench-smoke job gates on that).
//
// With --json=PATH the headline numbers are written as the repo's
// benchmark artifact:
//
//   {"bench": ..., "config": {<inputs>}, "measured": {<cold rates>},
//    "functions_per_sec": <warm>, "cache_hit_rate": <warm>,
//    "git_sha": ...}
//
//   bench_cache_warmcold [--functions=N] [--jobs=N] [--cache-dir=DIR]
//                        [--json=PATH] [--git-sha=SHA] [--csv]
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

// The same Sec. 4 flavor the throughput bench uses: the thermal DFA
// dominates, which is exactly the work a warm cache skips.
constexpr const char* kSpec =
    "cse,dce,alloc=linear:first_free,thermal-dfa,"
    "alloc=coloring:coolest_first,schedule";

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

double funcs_per_sec(std::size_t functions, double seconds) {
  return bench::per_sec(functions, seconds);
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
  // The bench owns (and wipes) a namespaced subdirectory so a cold run
  // is actually cold — never the caller's directory itself.
  namespace fs = std::filesystem;
  const fs::path root =
      cache_dir.empty() ? fs::temp_directory_path() : fs::path(cache_dir);
  const fs::path dir = root / "tadfa-warmcold-cache";
  std::error_code ec;
  fs::remove_all(dir, ec);

  workload::ModuleConfig mcfg;
  mcfg.functions = functions;
  mcfg.seed = kSeed;
  const ir::Module module = workload::make_mixed_module(mcfg);

  bench::Rig rig;
  pipeline::PipelineContext ctx;
  ctx.floorplan = &rig.fp;
  ctx.grid = &rig.grid;
  ctx.power = &rig.power;

  pipeline::CompilationDriver driver(ctx);
  pipeline::ResultCache cache(dir.string());
  if (!cache.ok()) {
    std::cerr << cache.error() << "\n";
    return 1;
  }
  driver.set_result_cache(&cache);

  struct Phase {
    const char* name;
    unsigned jobs;
    double seconds = 0;
    double hit_rate = 0;
    Snapshot snap;
    bool identical = true;
  };
  // Cold populates the cache; the warm runs must reproduce it exactly,
  // single-threaded and parallel.
  Phase phases[] = {{"cold", jobs}, {"warm", 1}, {"warm", jobs}};
  for (Phase& phase : phases) {
    driver.set_jobs(phase.jobs);
    const auto result = driver.compile(module, kSpec);
    if (!result.ok) {
      std::cerr << phase.name << " compile failed: " << result.error << "\n";
      return 1;
    }
    phase.seconds = result.total_seconds;
    phase.hit_rate = result.cache_hit_rate();
    phase.snap = snapshot(result);
    phase.identical = identical(phase.snap, phases[0].snap);
  }

  TextTable table("warm/cold result cache — " + std::to_string(functions) +
                  " functions, spec: " + std::string(kSpec));
  table.set_header(
      {"phase", "jobs", "wall s", "funcs/sec", "hit rate", "identical"});
  bool all_identical = true;
  for (const Phase& phase : phases) {
    table.add_row({phase.name, std::to_string(phase.jobs),
                   TextTable::num(phase.seconds, 3),
                   TextTable::num(funcs_per_sec(functions, phase.seconds), 1),
                   TextTable::num(phase.hit_rate * 100.0, 1) + "%",
                   phase.identical ? "yes" : "NO"});
    all_identical = all_identical && phase.identical;
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << "warm speedup over cold: "
            << TextTable::num(
                   phases[0].seconds /
                       (phases[2].seconds > 0 ? phases[2].seconds : 1e-12),
                   1)
            << "x\n";

  const Phase& warm = phases[2];
  if (!json_path.empty()) {
    std::ostringstream json;
    json << "{\n"
         << "  \"bench\": \"cache_warmcold\",\n"
         << "  \"config\": {\n"
         << "    \"functions\": " << functions << ",\n"
         << "    \"jobs\": " << warm.jobs << ",\n"
         << "    \"seed\": " << kSeed << ",\n"
         << "    \"spec\": \"" << json_escape(kSpec) << "\"\n"
         << "  },\n"
         << "  \"measured\": {\n"
         << "    \"functions_per_sec_cold\": "
         << funcs_per_sec(functions, phases[0].seconds) << ",\n"
         << "    \"functions_per_sec_warm_serial\": "
         << funcs_per_sec(functions, phases[1].seconds) << "\n"
         << "  },\n"
         << "  \"functions_per_sec\": "
         << funcs_per_sec(functions, warm.seconds) << ",\n"
         << "  \"cache_hit_rate\": " << warm.hit_rate << ",\n"
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

  if (!all_identical) {
    std::cerr << "DETERMINISM VIOLATED: warm output differs from cold\n";
    return 1;
  }
  if (warm.hit_rate < 0.95) {
    std::cerr << "CACHE INEFFECTIVE: warm hit rate "
              << TextTable::num(warm.hit_rate * 100.0, 1)
              << "% is below the 95% floor\n";
    return 1;
  }
  return 0;
}
