// The three workloads. Each builds its inputs from the seed, times only
// calls into the compiler's public functions, checks every output, and
// fills a RunResult with the metrics of metrics.hpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"
#include "ir/function.hpp"

namespace perfbench {

/// One module of a compile pool: IR built directly (cold_module) or
/// texpr source the timed region parses (deep_loops).
struct PoolModule {
  std::string name;
  /// texpr source; empty when `module` is the input.
  std::string source;
  tadfa::ir::Module module;
  /// Per function, in module order.
  std::vector<CheckInput> inputs;
};

/// cold_module: the fixed corpus of mixed modules
/// (workload::make_mixed_module), salted by the seed.
std::vector<PoolModule> cold_module_pool(std::uint64_t seed);
/// deep_loops: modules of texpr nests 2 to 6 loops deep.
std::vector<PoolModule> deep_loops_pool(std::uint64_t seed);

RunResult run_cold_module(const Options& options);
RunResult run_deep_loops(const Options& options);
RunResult run_served_edits(const Options& options);

}  // namespace perfbench
