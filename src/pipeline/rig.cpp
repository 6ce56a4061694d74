#include "pipeline/rig.hpp"

#include <utility>

namespace tadfa::pipeline {

CompileRig::CompileRig(machine::MachineConfig config, RigOptions options)
    : config_(std::move(config)),
      options_(options),
      floorplan_(config_.rf),
      grid_(floorplan_, options_.subdivision),
      power_(floorplan_.config()) {}

PipelineContext CompileRig::context() const {
  PipelineContext ctx;
  ctx.floorplan = &floorplan_;
  ctx.grid = &grid_;
  ctx.power = &power_;
  ctx.dfa_config = options_.dfa_config;
  ctx.policy_seed = options_.policy_seed;
  ctx.machine = &config_;
  return ctx;
}

}  // namespace tadfa::pipeline
