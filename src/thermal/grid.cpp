#include "thermal/grid.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "support/assert.hpp"
#include "support/serialize.hpp"

namespace tadfa::thermal {

bool ThermalGrid::supports(const machine::RegisterFileConfig& rf,
                           std::uint64_t subdivision) {
  constexpr std::uint64_t kMaxNodes = std::numeric_limits<std::int32_t>::max();
  const std::uint64_t cells = std::uint64_t{rf.rows} * rf.cols;
  // cells·s² <= kMaxNodes, written so that nothing overflows.
  return subdivision >= 1 && cells >= 1 &&
         subdivision <= kMaxNodes / cells / subdivision;
}

ThermalGrid::ThermalGrid(const machine::Floorplan& floorplan,
                         unsigned subdivision)
    : floorplan_(&floorplan), subdivision_(subdivision) {
  TADFA_ASSERT(supports(floorplan.config(), subdivision));
  const auto& cfg = floorplan.config();
  const auto& tech = cfg.tech;
  substrate_temp_ = tech.substrate_temp_k;

  node_rows_ = static_cast<std::size_t>(cfg.rows) * subdivision;
  node_cols_ = static_cast<std::size_t>(cfg.cols) * subdivision;
  const std::size_t n = node_rows_ * node_cols_;

  const double node_w = tech.cell_width_m / subdivision;
  const double node_h = tech.cell_height_m / subdivision;
  const double thickness = tech.die_thickness_m;
  const double k = tech.silicon_conductivity;

  // Capacitance: node volume × volumetric heat capacity.
  const double c_node = node_w * node_h * thickness * tech.silicon_volumetric_heat;
  cap_.assign(n, c_node);

  // Vertical: spreading resistance of the whole cell into the bulk,
  // R_cell = scale / (2·k·sqrt(A_cell/π)), split evenly over the cell's
  // subdivision² nodes so total vertical conductance is subdivision-
  // invariant (the granularity knob changes resolution, not physics).
  const double cell_area = tech.cell_area_m2();
  const double r_cell = tech.vertical_resistance_scale /
                        (2.0 * k * std::sqrt(cell_area / 3.14159265358979));
  const double g_cell = 1.0 / r_cell;
  const double g_node = g_cell / (subdivision * subdivision);
  g_vertical_.assign(n, g_node);

  // Lateral conduction between adjacent nodes:
  // G = k · (edge_length · thickness) / center_distance.
  g_lateral_h_ = k * (node_h * thickness) / node_w;  // east-west
  g_lateral_v_ = k * (node_w * thickness) / node_h;  // north-south

  // Stability: dt < min_i C_i / (sum of conductances at i). Corner nodes
  // have fewest links, interior most; use the interior worst case.
  const double g_max = g_node + 2 * g_lateral_h_ + 2 * g_lateral_v_;
  stable_dt_ = 0.9 * c_node / g_max;

  // Slot-major neighbor planes for the transient hot loop: slot order
  // W/E/N/S, missing neighbors self-linked with zero conductance.
  nbr_g_.assign(4 * n, 0.0);
  nbr_idx_.assign(4 * n, 0);
  auto link = [&](std::size_t slot, std::size_t i, bool present,
                  std::size_t j, double g) {
    nbr_idx_[slot * n + i] = static_cast<std::int32_t>(present ? j : i);
    nbr_g_[slot * n + i] = present ? g : 0.0;
  };
  for (std::size_t row = 0; row < node_rows_; ++row) {
    for (std::size_t col = 0; col < node_cols_; ++col) {
      const std::size_t i = node_index(row, col);
      link(0, i, col > 0, i - 1, g_lateral_h_);
      link(1, i, col + 1 < node_cols_, i + 1, g_lateral_h_);
      link(2, i, row > 0, i - node_cols_, g_lateral_v_);
      link(3, i, row + 1 < node_rows_, i + node_cols_, g_lateral_v_);
    }
  }

  // Register <-> node maps.
  cell_nodes_.assign(cfg.num_registers, {});
  node_owner_.assign(n, 0);
  for (machine::PhysReg r = 0; r < cfg.num_registers; ++r) {
    const std::size_t base_row =
        static_cast<std::size_t>(floorplan.row_of(r)) * subdivision;
    const std::size_t base_col =
        static_cast<std::size_t>(floorplan.col_of(r)) * subdivision;
    auto& nodes = cell_nodes_[r];
    nodes.reserve(static_cast<std::size_t>(subdivision) * subdivision);
    for (unsigned dr = 0; dr < subdivision; ++dr) {
      for (unsigned dc = 0; dc < subdivision; ++dc) {
        const std::size_t idx = node_index(base_row + dr, base_col + dc);
        nodes.push_back(idx);
        node_owner_[idx] = r;
      }
    }
  }
}

const std::vector<std::size_t>& ThermalGrid::nodes_of(
    machine::PhysReg r) const {
  TADFA_ASSERT(r < cell_nodes_.size());
  return cell_nodes_[r];
}

machine::PhysReg ThermalGrid::register_of(std::size_t node) const {
  TADFA_ASSERT(node < node_owner_.size());
  return node_owner_[node];
}

ThermalState ThermalGrid::initial_state() const {
  ThermalState s;
  s.node_temps.assign(node_count(), substrate_temp_);
  return s;
}

void ThermalGrid::spread_power(std::span<const double> reg_power_w,
                               std::vector<double>& p) const {
  p.assign(node_count(), 0.0);
  const double per_node = 1.0 / (subdivision_ * subdivision_);
  for (machine::PhysReg r = 0; r < reg_power_w.size(); ++r) {
    const double share = reg_power_w[r] * per_node;
    for (std::size_t idx : cell_nodes_[r]) {
      p[idx] += share;
    }
  }
}

void ThermalGrid::substep(double* t, const double* p, double* flux,
                          double h) const {
  // The per-node operation order is the original scalar loop's
  // (p + g_v·(T_sub − t), then the W/E/N/S links in turn), only unrolled
  // across slot planes, so results match it bit-for-bit wherever the
  // compiler does not contract into FMA (x86-64 baseline codegen has no
  // FMA).
  const std::size_t n = node_count();
  const double* gv = g_vertical_.data();
  const double* cap = cap_.data();
  const double ts = substrate_temp_;
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) {
    flux[i] = p[i] + gv[i] * (ts - t[i]);
  }
  for (std::size_t s = 0; s < 4; ++s) {
    const double* g = nbr_g_.data() + s * n;
    const std::int32_t* idx = nbr_idx_.data() + s * n;
#pragma omp simd
    for (std::size_t i = 0; i < n; ++i) {
      flux[i] += g[i] * (t[idx[i]] - t[i]);
    }
  }
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) {
    t[i] += h * flux[i] / cap[i];
  }
}

void ThermalGrid::step(ThermalState& state,
                       std::span<const double> reg_power_w, double dt) const {
  TADFA_ASSERT(state.node_temps.size() == node_count());
  TADFA_ASSERT(reg_power_w.size() == floorplan_->num_registers());
  TADFA_ASSERT(dt >= 0.0);
  if (dt == 0.0) {
    return;
  }

  // Spread per-register power uniformly over the cell's nodes. The
  // scratch is thread_local — the DFA calls step() once per instruction
  // per iteration, and per-call mallocs both cost time and serialize the
  // driver's worker pool on the allocator.
  thread_local std::vector<double> p;
  thread_local std::vector<double> flux;
  spread_power(reg_power_w, p);
  flux.resize(node_count());

  const int substeps =
      std::max(1, static_cast<int>(std::ceil(dt / stable_dt_)));
  const double h = dt / substeps;

  for (int s = 0; s < substeps; ++s) {
    substep(state.node_temps.data(), p.data(), flux.data(), h);
  }
}

ThermalState ThermalGrid::steady_state(std::span<const double> reg_power_w,
                                       double tolerance_k) const {
  TADFA_ASSERT(reg_power_w.size() == floorplan_->num_registers());

  std::vector<double> p;
  spread_power(reg_power_w, p);
  ThermalState state = initial_state();
  std::vector<double>& t = state.node_temps;

  // Gauss-Seidel on  (G_v + ΣG_l)·T_i = P_i + G_v·T_sub + Σ G_l·T_j.
  // The system matrix is strictly diagonally dominant (G_v > 0), so this
  // converges for any starting point.
  double worst = tolerance_k + 1;
  int iterations = 0;
  const int max_iterations = 100000;
  while (worst > tolerance_k && iterations < max_iterations) {
    worst = 0.0;
    ++iterations;
    for (std::size_t row = 0; row < node_rows_; ++row) {
      for (std::size_t col = 0; col < node_cols_; ++col) {
        const std::size_t i = node_index(row, col);
        double g_sum = g_vertical_[i];
        double rhs = p[i] + g_vertical_[i] * substrate_temp_;
        if (col > 0) {
          g_sum += g_lateral_h_;
          rhs += g_lateral_h_ * t[i - 1];
        }
        if (col + 1 < node_cols_) {
          g_sum += g_lateral_h_;
          rhs += g_lateral_h_ * t[i + 1];
        }
        if (row > 0) {
          g_sum += g_lateral_v_;
          rhs += g_lateral_v_ * t[i - node_cols_];
        }
        if (row + 1 < node_rows_) {
          g_sum += g_lateral_v_;
          rhs += g_lateral_v_ * t[i + node_cols_];
        }
        const double updated = rhs / g_sum;
        worst = std::max(worst, std::abs(updated - t[i]));
        t[i] = updated;
      }
    }
  }
  return state;
}

std::vector<double> ThermalGrid::register_temps(
    const ThermalState& state) const {
  TADFA_ASSERT(state.node_temps.size() == node_count());
  std::vector<double> out(floorplan_->num_registers(), 0.0);
  for (machine::PhysReg r = 0; r < out.size(); ++r) {
    double sum = 0.0;
    for (std::size_t idx : cell_nodes_[r]) {
      sum += state.node_temps[idx];
    }
    out[r] = sum / static_cast<double>(cell_nodes_[r].size());
  }
  return out;
}

double ThermalGrid::stored_energy(const ThermalState& state) const {
  TADFA_ASSERT(state.node_temps.size() == node_count());
  double e = 0.0;
  for (std::size_t i = 0; i < node_count(); ++i) {
    e += cap_[i] * (state.node_temps[i] - substrate_temp_);
  }
  return e;
}

std::uint64_t ThermalGrid::config_digest() const {
  return Hasher()
      .mix(floorplan_->config_digest())
      .mix(std::uint64_t{subdivision_})
      .digest();
}

}  // namespace tadfa::thermal
