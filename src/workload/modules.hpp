// Multi-function module generation: the driver's workload.
//
// A generated module mixes parameterized variants of the hand-built
// kernel suite (FIR, DCT, CRC, stencils...) with seeded random programs,
// giving the CompilationDriver a realistic spread of sizes, register
// pressures, and control-flow shapes. Generation is fully deterministic
// in (seed, index): the same config always produces the byte-identical
// module, which the parallel-determinism tests and perfbench rely on.
#pragma once

#include <cstdint>

#include "ir/function.hpp"

namespace tadfa::workload {

struct ModuleConfig {
  /// Number of functions to generate.
  std::size_t functions = 64;
  /// Varies kernel parameters and seeds the random programs.
  std::uint64_t seed = 1;
  /// Every k-th function is a seeded random program instead of a kernel
  /// variant (0 disables random programs entirely).
  std::size_t random_every = 3;
  /// Size knob for the random programs.
  int random_target_instructions = 120;
  /// Every k-th function declares a module-level reference to a seeded
  /// earlier function (0 disables references). References chain through
  /// each other, so generated modules exercise transitive dependency
  /// invalidation, not just direct edges.
  std::size_t ref_every = 4;
};

/// Generates a mixed kernel-suite module. Function names are unique
/// (`<kernel>_<index>`), function *bodies* are unique by
/// ir::fingerprint (duplicate variants are re-salted away, so measured
/// cache-hit rates are not inflated by accidental twins), every
/// function passes ir::verify, and the result depends only on `config`.
ir::Module make_mixed_module(const ModuleConfig& config = {});

}  // namespace tadfa::workload
