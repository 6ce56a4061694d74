// Compact RC thermal model of the register file (HotSpot-class).
//
// Substitutes for the HW/SW thermal emulation framework the paper cites as
// [5]. Each register cell is subdivided into `subdivision`² grid nodes
// (Sec. 3's accuracy/cost knob: "increasing the number of points would
// increase accuracy, but at the cost of increased computation time").
//
// Per node:
//   - capacitance C from node volume × volumetric heat capacity;
//   - lateral conductances to the 4-neighbors (silicon conduction);
//   - a vertical conductance to the surrounding die (spreading resistance
//     into the substrate, which is held at substrate_temp_k).
//
// The model is linear; leakage's temperature dependence is closed by the
// caller (power model) between steps.
//
// One transient kernel: explicit Euler, one fused `#pragma omp simd` pass
// per substep from one padded temperature plane into another. Each node's
// operations run in the original scalar loop's order, so its results are
// bit-identical to that loop. Every substep of a window applies the same
// map, so a window ends early once a substep leaves every node bit-for-bit
// unchanged. steady_state() is full-sweep Gauss-Seidel, kept as the
// transient step's oracle.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "machine/floorplan.hpp"

namespace tadfa::thermal {

/// Discrete approximation of the RF temperature field: one value per grid
/// node, in kelvin.
struct ThermalState {
  std::vector<double> node_temps;

  friend bool operator==(const ThermalState&, const ThermalState&) = default;
};

class ThermalGrid {
 public:
  /// `subdivision` >= 1: grid points per cell edge (nodes per cell =
  /// subdivision²). Must satisfy supports().
  ThermalGrid(const machine::Floorplan& floorplan, unsigned subdivision = 1);

  /// Whether a grid over `rf` at `subdivision` can be built: the node
  /// count must fit in an int32. That bound is the `--subdivision` limit
  /// the CLI and server validate.
  static bool supports(const machine::RegisterFileConfig& rf,
                       std::uint64_t subdivision);

  const machine::Floorplan& floorplan() const { return *floorplan_; }
  unsigned subdivision() const { return subdivision_; }
  std::size_t node_count() const { return cap_.size(); }

  /// Node indices covering a register's cell.
  std::span<const std::size_t> nodes_of(machine::PhysReg r) const;

  /// Register whose cell contains this node.
  machine::PhysReg register_of(std::size_t node) const;

  /// State with every node at the substrate temperature.
  ThermalState initial_state() const;

  /// Advances the transient solution by `dt` seconds with per-register
  /// power `reg_power_w` (watts, spread uniformly over each cell's nodes).
  /// Internally substeps to respect the explicit-Euler stability limit.
  /// A window longer than INT_MAX substeps, or `dt` = +inf, runs at
  /// max_stable_dt() until Euler's fixed point (the steady state).
  void step(ThermalState& state, std::span<const double> reg_power_w,
            double dt) const;

  /// Steady-state temperatures under constant per-register power
  /// (full-sweep Gauss-Seidel to `tolerance_k`).
  ThermalState steady_state(std::span<const double> reg_power_w,
                            double tolerance_k = 1e-9) const;

  /// Largest dt (seconds) a single explicit-Euler step may take.
  double max_stable_dt() const { return stable_dt_; }

  /// Per-register temperatures: average of each cell's nodes.
  std::vector<double> register_temps(const ThermalState& state) const;
  /// The same, written into `out` (one entry per register).
  void register_temps(const ThermalState& state, std::span<double> out) const;

  /// Sum over nodes of C·(T - substrate): stored thermal energy relative
  /// to the substrate (J). Used by conservation tests.
  double stored_energy(const ThermalState& state) const;

  double substrate_temp() const { return substrate_temp_; }

  /// Digest of everything the solution depends on: the floorplan config
  /// (geometry and thermal coefficients) plus the subdivision knob. The
  /// conductance/capacitance tables are derived deterministically from
  /// these, so they carry no information of their own.
  std::uint64_t config_digest() const;

 private:
  std::size_t node_index(std::size_t row, std::size_t col) const {
    return row * node_cols_ + col;
  }

  /// Spreads per-register watts uniformly over each cell's nodes into
  /// `p` (resized to node_count()).
  void spread_power(std::span<const double> reg_power_w,
                    std::vector<double>& p) const;

  const machine::Floorplan* floorplan_;
  unsigned subdivision_;
  std::size_t node_rows_ = 0;
  std::size_t node_cols_ = 0;
  double substrate_temp_ = 0;

  std::vector<double> cap_;              // C per node (J/K)
  std::vector<double> g_vertical_;       // node -> substrate (W/K)
  double g_lateral_h_ = 0;               // east-west neighbor link (W/K)
  double g_lateral_v_ = 0;               // north-south neighbor link (W/K)
  double stable_dt_ = 0;

  // Link conductances for step()'s loop: 4 planes in fixed W/E/N/S order
  // (slot s's plane starts at s·n). step() reads every node's four
  // neighbors at t[i±1] and t[i±node_cols_]; at an edge that read lands
  // on the next row or a pad of finite values, and the absent link's
  // conductance 0 turns it into an exact +0 or −0, which leaves the
  // running flux (never −0) unchanged. So the loop is branch-free and
  // still bit-identical to the edge-checked form.
  std::vector<double> nbr_g_;  // 4 planes (W/K; 0 = no link)

  // Each register's subdivision² node indices, register-major.
  std::vector<std::size_t> cell_nodes_;
  std::vector<machine::PhysReg> node_owner_;
};

}  // namespace tadfa::thermal
