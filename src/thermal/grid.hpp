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
// A window of dt seconds is n = ceil(dt / max_stable_dt()) explicit-Euler
// substeps of h = dt / n. It takes one of two paths:
//
//   - Euler loop, for n < max(64, node rows + node cols): one fused
//     `#pragma omp simd` pass per substep from one padded temperature
//     plane into another. Each node's operations run in the original
//     scalar loop's order, so its results are bit-identical to that loop.
//   - Modal path, for every longer window, including n past INT_MAX and
//     dt = +inf: Euler's own n-step map in closed form. C, g_v and each
//     direction's lateral conductance are the same at every node of the
//     full rectangle, so G = g_v·I + g_ns·(L_rows⊗I) + g_ew·(I⊗L_cols) is
//     diagonal in the orthonormal DCT-II basis Φ of the two free-ended
//     path Laplacians, with λ_ab = g_v + g_ns·μ_a + g_ew·μ_b and
//     μ_k = 2 − 2cos(πk/m). On U = T − T_sub and Ŝ = Φᵀp/λ the window is
//     Û ← Ŝ + (1 − hλ/C)ⁿ(ΦᵀU − Ŝ), T = T_sub + ΦÛ, with the power taken
//     as 0 at n = ∞. That is three separable transforms, about
//     3·(rows + cols) multiply-adds per node, whatever n is. Its bits
//     differ from the loop's in the last places (about 1e-11 K), so
//     config_digest() carries a propagator marker.
//
// steady_state() is the same map at n = ∞: an exact solve.
//
// The Euler loop and the register readout are each built for AVX-512,
// AVX2 and baseline x86-64, and the process runs the clone its CPU
// supports (support/target_clones.hpp). The width cannot move a bit:
// every lane runs its own node's (or cell's) operations in the scalar
// order, no two lanes' values are ever combined, and -ffp-contract=off
// keeps each product and sum rounded on its own. At s = 1 the readout
// reads node r as cell r with no division (x/1 is x); every other s
// divides each cell's node sum by s².
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

  /// Whether a grid over `rf` at `subdivision` can be built: at most 2^20
  /// nodes, so s <= 128 on the 8×8 default file and s <= 90 on the 8×16
  /// one. Building a grid at the cap and taking one step peaks at about
  /// 125 MB, where s = 4000 on the default file would ask for tens of GB.
  /// That bound is the `--subdivision` limit the CLI and server validate.
  static bool supports(const machine::RegisterFileConfig& rf,
                       std::uint64_t subdivision);

  const machine::Floorplan& floorplan() const { return *floorplan_; }
  unsigned subdivision() const { return subdivision_; }
  std::size_t node_count() const { return node_rows_ * node_cols_; }

  /// Node indices covering a register's cell.
  std::span<const std::size_t> nodes_of(machine::PhysReg r) const;

  /// Register whose cell contains this node.
  machine::PhysReg register_of(std::size_t node) const;

  /// State with every node at the substrate temperature.
  ThermalState initial_state() const;

  /// Advances the transient solution by `dt` seconds with per-register
  /// power `reg_power_w` (watts, spread uniformly over each cell's nodes):
  /// n explicit-Euler substeps at the stability limit, run one by one or
  /// applied in closed form (see the header comment). `dt` = +inf lands
  /// on the steady state.
  void step(ThermalState& state, std::span<const double> reg_power_w,
            double dt) const;

  /// Steady-state temperatures under constant per-register power: the
  /// modal path's exact solve G·U = p.
  ThermalState steady_state(std::span<const double> reg_power_w) const;

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

  /// `substeps` Euler substeps of `h` seconds on `temps` under node
  /// power `p`.
  void euler(std::vector<double>& temps, const std::vector<double>& p,
             int substeps, double h) const;

  /// Euler's `substeps`-step map of `h` seconds in closed form on `temps`
  /// under node power `p`; `substeps` = +inf is the steady state, and
  /// `h` is then not read.
  void propagate_modal(std::vector<double>& temps,
                       const std::vector<double>& p, double substeps,
                       double h) const;

  /// out = a·x·b for a node plane x (rows × cols), a rows × rows and b
  /// cols × cols, all row-major; `work` holds node_count() values.
  void sandwich(const std::vector<double>& a, const double* x,
                const std::vector<double>& b, double* out,
                double* work) const;

  const machine::Floorplan* floorplan_;
  unsigned subdivision_;
  std::size_t node_rows_ = 0;
  std::size_t node_cols_ = 0;
  double substrate_temp_ = 0;

  // The grid is a full rectangle of identical nodes: one C, one g_v and
  // one lateral conductance per direction. The modal basis is exact only
  // because of this.
  double cap_ = 0;          // C per node (J/K)
  double g_vertical_ = 0;   // node -> substrate (W/K)
  double g_lateral_h_ = 0;  // east-west neighbor link (W/K)
  double g_lateral_v_ = 0;  // north-south neighbor link (W/K)
  double stable_dt_ = 0;
  // Windows of at least this many substeps take the modal path.
  double modal_cutoff_ = 0;

  // Link conductances for step()'s loop: 4 planes in fixed W/E/N/S order
  // (slot s's plane starts at s·n). step() reads every node's four
  // neighbors at t[i±1] and t[i±node_cols_]; at an edge that read lands
  // on the next row or a pad of finite values, and the absent link's
  // conductance 0 turns it into an exact +0 or −0, which leaves the
  // running flux (never −0) unchanged. So the loop is branch-free and
  // still bit-identical to the edge-checked form.
  std::vector<double> nbr_g_;  // 4 planes (W/K; 0 = no link)

  // Modal basis: Φ[j][k] = φ_k(j) = c_k·cos(πk(j + ½)/m), the
  // orthonormal DCT-II eigenvectors of a free-ended path of m nodes, for
  // the rows and the columns, each also transposed so that every
  // transform loop runs along a row.
  std::vector<double> phi_rows_, phi_rows_t_;
  std::vector<double> phi_cols_, phi_cols_t_;
  std::vector<double> eigenvalues_;  // λ_ab at [a·cols + b] (W/K)

  // Each register's subdivision² node indices, register-major.
  std::vector<std::size_t> cell_nodes_;
  std::vector<machine::PhysReg> node_owner_;
};

}  // namespace tadfa::thermal
