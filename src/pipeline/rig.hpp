// CompileRig: a named MachineConfig turned into live pipeline plumbing.
//
// PipelineContext is deliberately non-owning — the Floorplan, ThermalGrid,
// and PowerModel must outlive every pass. Before the machine matrix,
// each harness (CLI, server, tests) hand-assembled that trio from the one
// hard-coded RegisterFileConfig; the rig packages the recipe so "give me
// machine 'dense45' at subdivision 2" is one constructor call, and so a
// server can stand up additional machines lazily when requests name them.
#pragma once

#include <cstdint>

#include "core/thermal_dfa.hpp"
#include "machine/floorplan.hpp"
#include "machine/machine_config.hpp"
#include "pipeline/context.hpp"
#include "power/model.hpp"
#include "thermal/grid.hpp"

namespace tadfa::pipeline {

/// Everything about a rig that is not the machine itself.
struct RigOptions {
  /// Thermal grid points per cell edge.
  unsigned subdivision = 1;
  core::ThermalDfaConfig dfa_config;
  std::uint64_t policy_seed = 42;
};

/// Owns the rig objects for one machine; context() hands out the
/// non-owning view every driver and pass manager consumes. The rig must
/// outlive every PipelineContext it produced.
class CompileRig {
 public:
  explicit CompileRig(machine::MachineConfig config, RigOptions options = {});

  /// A context wired to this rig (pointers into *this).
  PipelineContext context() const;

  const machine::MachineConfig& machine() const { return config_; }
  const machine::Floorplan& floorplan() const { return floorplan_; }
  const thermal::ThermalGrid& grid() const { return grid_; }
  const power::PowerModel& power() const { return power_; }
  const RigOptions& options() const { return options_; }

 private:
  machine::MachineConfig config_;
  RigOptions options_;
  machine::Floorplan floorplan_;
  thermal::ThermalGrid grid_;
  power::PowerModel power_;
};

}  // namespace tadfa::pipeline
