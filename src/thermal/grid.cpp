#include "thermal/grid.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
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

  // Link conductance planes for the transient hot loop: slot order
  // W/E/N/S, zero conductance where the neighbor is missing.
  nbr_g_.assign(4 * n, 0.0);
  for (std::size_t row = 0; row < node_rows_; ++row) {
    for (std::size_t col = 0; col < node_cols_; ++col) {
      const std::size_t i = node_index(row, col);
      nbr_g_[0 * n + i] = col > 0 ? g_lateral_h_ : 0.0;
      nbr_g_[1 * n + i] = col + 1 < node_cols_ ? g_lateral_h_ : 0.0;
      nbr_g_[2 * n + i] = row > 0 ? g_lateral_v_ : 0.0;
      nbr_g_[3 * n + i] = row + 1 < node_rows_ ? g_lateral_v_ : 0.0;
    }
  }

  // Register <-> node maps.
  cell_nodes_.reserve(n);
  node_owner_.assign(n, 0);
  for (machine::PhysReg r = 0; r < cfg.num_registers; ++r) {
    const std::size_t base_row =
        static_cast<std::size_t>(floorplan.row_of(r)) * subdivision;
    const std::size_t base_col =
        static_cast<std::size_t>(floorplan.col_of(r)) * subdivision;
    for (unsigned dr = 0; dr < subdivision; ++dr) {
      for (unsigned dc = 0; dc < subdivision; ++dc) {
        const std::size_t idx = node_index(base_row + dr, base_col + dc);
        cell_nodes_.push_back(idx);
        node_owner_[idx] = r;
      }
    }
  }
}

std::span<const std::size_t> ThermalGrid::nodes_of(machine::PhysReg r) const {
  TADFA_ASSERT(r < floorplan_->num_registers());
  const std::size_t per_cell = std::size_t{subdivision_} * subdivision_;
  return {cell_nodes_.data() + r * per_cell, per_cell};
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
  // Each node has exactly one owner, so its power is that cell's share.
  const double per_node = 1.0 / (subdivision_ * subdivision_);
  p.resize(node_count());
  for (std::size_t i = 0; i < p.size(); ++i) {
    p[i] = reg_power_w[node_owner_[i]] * per_node;
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

  // The substep ratio stays in double until it is known to fit an int. A
  // longer window (dt = +inf arises once a loop nest's frequency scaling
  // overflows) runs at the stability limit and ends at the fixed point
  // below, long before the cap.
  constexpr int kMaxSubsteps = std::numeric_limits<int>::max();
  const double ratio = std::ceil(dt / stable_dt_);
  int substeps = kMaxSubsteps;
  double h = stable_dt_;
  if (ratio <= kMaxSubsteps) {
    substeps = std::max(1, static_cast<int>(ratio));
    h = dt / substeps;
  }

  // Two temperature planes laid out [pad][t][pad][next][pad], each pad
  // node_cols_ finite values, so every node's W/E/N/S reads stay in
  // bounds (see nbr_g_). Only the pads need filling per call. The scratch
  // is thread_local — the DFA calls step() once per instruction per
  // iteration, and per-call mallocs both cost time and serialize the
  // driver's worker pool on the allocator.
  thread_local std::vector<double> p;
  thread_local std::vector<double> planes;
  spread_power(reg_power_w, p);
  const std::size_t n = node_count();
  const std::size_t pad = node_cols_;
  planes.resize(2 * n + 3 * pad);
  double* t = planes.data() + pad;
  double* next = t + n + pad;
  std::fill_n(planes.data(), pad, substrate_temp_);
  std::fill_n(t + n, pad, substrate_temp_);
  std::fill_n(next + n, pad, substrate_temp_);
  std::copy(state.node_temps.begin(), state.node_temps.end(), t);

  // Every substep applies the same map (same p, same h), so one that
  // leaves every node's bits unchanged has reached the fixed point and
  // the rest would change nothing. Checking every 64th substep keeps the
  // compare off short windows.
  constexpr int kFixedPointCheck = 64;
  const double* pw = p.data();
  const double* gv = g_vertical_.data();
  const double* gw = nbr_g_.data();
  const double* ge = gw + n;
  const double* gn = ge + n;
  const double* gs = gn + n;
  const double* cap = cap_.data();
  const double ts = substrate_temp_;
  const auto nodes = static_cast<std::ptrdiff_t>(n);
  const auto row = static_cast<std::ptrdiff_t>(node_cols_);
  for (int s = 0; s < substeps; ++s) {
    // The original scalar loop's per-node order: p + g_v·(T_sub − t), then
    // the W/E/N/S links in turn. Results match it bit-for-bit wherever
    // the compiler does not contract into FMA (x86-64 baseline codegen
    // has no FMA).
#pragma omp simd
    for (std::ptrdiff_t i = 0; i < nodes; ++i) {
      const double ti = t[i];
      double flux = pw[i] + gv[i] * (ts - ti);
      flux += gw[i] * (t[i - 1] - ti);
      flux += ge[i] * (t[i + 1] - ti);
      flux += gn[i] * (t[i - row] - ti);
      flux += gs[i] * (t[i + row] - ti);
      next[i] = ti + h * flux / cap[i];
    }
    std::swap(t, next);
    if ((s + 1) % kFixedPointCheck == 0 && s + 1 < substeps &&
        std::memcmp(t, next, n * sizeof(double)) == 0) {
      break;
    }
  }
  std::copy_n(t, n, state.node_temps.begin());
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
  std::vector<double> out(floorplan_->num_registers());
  register_temps(state, out);
  return out;
}

void ThermalGrid::register_temps(const ThermalState& state,
                                 std::span<double> out) const {
  TADFA_ASSERT(state.node_temps.size() == node_count());
  TADFA_ASSERT(out.size() == floorplan_->num_registers());
  const double* t = state.node_temps.data();
  const std::size_t per_cell = std::size_t{subdivision_} * subdivision_;
  for (std::size_t r = 0; r < out.size(); ++r) {
    double sum = 0.0;
    for (std::size_t j = r * per_cell; j < (r + 1) * per_cell; ++j) {
      sum += t[cell_nodes_[j]];
    }
    out[r] = sum / static_cast<double>(per_cell);
  }
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
