#include "thermal/grid.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string_view>

#include "support/assert.hpp"
#include "support/serialize.hpp"
#include "support/target_clones.hpp"

namespace tadfa::thermal {

bool ThermalGrid::supports(const machine::RegisterFileConfig& rf,
                           std::uint64_t subdivision) {
  constexpr std::uint64_t kMaxNodes = std::uint64_t{1} << 20;
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
  cap_ = node_w * node_h * thickness * tech.silicon_volumetric_heat;

  // Vertical: spreading resistance of the whole cell into the bulk,
  // R_cell = scale / (2·k·sqrt(A_cell/π)), split evenly over the cell's
  // subdivision² nodes so total vertical conductance is subdivision-
  // invariant (the granularity knob changes resolution, not physics).
  const double cell_area = tech.cell_area_m2();
  const double r_cell = tech.vertical_resistance_scale /
                        (2.0 * k * std::sqrt(cell_area / 3.14159265358979));
  const double g_cell = 1.0 / r_cell;
  g_vertical_ = g_cell / (subdivision * subdivision);

  // Lateral conduction between adjacent nodes:
  // G = k · (edge_length · thickness) / center_distance.
  g_lateral_h_ = k * (node_h * thickness) / node_w;  // east-west
  g_lateral_v_ = k * (node_w * thickness) / node_h;  // north-south

  // Stability: dt < min_i C_i / (sum of conductances at i). Corner nodes
  // have fewest links, interior most; use the interior worst case.
  const double g_max = g_vertical_ + 2 * g_lateral_h_ + 2 * g_lateral_v_;
  stable_dt_ = 0.9 * cap_ / g_max;

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

  // Modal basis and eigenvalues. A window costs the Euler loop one pass
  // over the nodes per substep and the modal path about 3·(rows + cols)
  // multiply-adds per node, so windows of fewer than max(64, rows +
  // cols) substeps stay on the loop (bench_perf_micro's BM_ThermalWindow
  // measures the crossover).
  auto dct_basis = [](std::size_t m, std::vector<double>& phi,
                      std::vector<double>& phi_t, std::vector<double>& mu) {
    phi.resize(m * m);
    phi_t.resize(m * m);
    mu.resize(m);
    const double pi = std::acos(-1.0);
    const double md = static_cast<double>(m);
    for (std::size_t mode = 0; mode < m; ++mode) {
      const double kd = static_cast<double>(mode);
      mu[mode] = 2.0 - 2.0 * std::cos(pi * kd / md);
      const double c = std::sqrt((mode == 0 ? 1.0 : 2.0) / md);
      for (std::size_t j = 0; j < m; ++j) {
        const double jd = static_cast<double>(j);
        phi[j * m + mode] = c * std::cos(pi * kd * (jd + 0.5) / md);
        phi_t[mode * m + j] = phi[j * m + mode];
      }
    }
  };
  std::vector<double> mu_rows;
  std::vector<double> mu_cols;
  dct_basis(node_rows_, phi_rows_, phi_rows_t_, mu_rows);
  dct_basis(node_cols_, phi_cols_, phi_cols_t_, mu_cols);
  eigenvalues_.resize(n);
  for (std::size_t a = 0; a < node_rows_; ++a) {
    for (std::size_t b = 0; b < node_cols_; ++b) {
      eigenvalues_[node_index(a, b)] =
          g_vertical_ + g_lateral_v_ * mu_rows[a] + g_lateral_h_ * mu_cols[b];
    }
  }
  modal_cutoff_ =
      static_cast<double>(std::max<std::size_t>(64, node_rows_ + node_cols_));

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
  s.plane_.assign(node_count() + 2 * node_cols_, substrate_temp_);
  s.pad_ = node_cols_;
  return s;
}

const double* ThermalGrid::node_power(
    std::span<const double> reg_power_w) const {
  if (subdivision_ == 1) {
    return reg_power_w.data();
  }
  // The buffer is thread_local: the DFA calls step() once per
  // instruction per iteration, and per-call mallocs both cost time and
  // serialize the driver's worker pool on the allocator. Each node has
  // exactly one owner, so its power is that cell's share.
  thread_local std::vector<double> p;
  const double per_node = 1.0 / (subdivision_ * subdivision_);
  p.resize(node_count());
  for (std::size_t i = 0; i < p.size(); ++i) {
    p[i] = reg_power_w[node_owner_[i]] * per_node;
  }
  return p.data();
}

void ThermalGrid::step(ThermalState& state,
                       std::span<const double> reg_power_w, double dt) const {
  TADFA_ASSERT(fits(state));
  TADFA_ASSERT(reg_power_w.size() == floorplan_->num_registers());
  TADFA_ASSERT(dt >= 0.0);
  if (dt == 0.0) {
    return;
  }
  const double* p = node_power(reg_power_w);
  // The substep count stays in double: a deep loop nest's window passes
  // INT_MAX substeps, and dt = +inf once its frequency scaling overflows.
  // Both take the modal path, so the loop's count always fits an int.
  const double substeps = std::max(1.0, std::ceil(dt / stable_dt_));
  if (substeps < modal_cutoff_) {
    euler(state, p, static_cast<int>(substeps), dt / substeps);
  } else {
    propagate_modal(state.nodes().data(), p, substeps, dt / substeps);
  }
}

TADFA_TARGET_CLONES
void ThermalGrid::euler(ThermalState& state, const double* p, int substeps,
                        double h) const {
  // The substeps alternate between the state's plane and the spare, so
  // every node's W/E/N/S reads stay in bounds and land on finite pads
  // (see nbr_g_). The spare's pads are written only when another grid's
  // layout left them, and no node is copied.
  thread_local ThermalState spare;
  if (spare.plane_.size() != state.plane_.size() || spare.pad_ != state.pad_) {
    spare.plane_.assign(state.plane_.size(), substrate_temp_);
    spare.pad_ = state.pad_;
  }
  const std::size_t n = node_count();
  double* t = state.plane_.data() + state.pad_;
  double* next = spare.plane_.data() + spare.pad_;

  const double* gw = nbr_g_.data();
  const double* ge = gw + n;
  const double* gn = ge + n;
  const double* gs = gn + n;
  const double gv = g_vertical_;
  const double cap = cap_;
  const double ts = substrate_temp_;
  const auto nodes = static_cast<std::ptrdiff_t>(n);
  const auto row = static_cast<std::ptrdiff_t>(node_cols_);
  for (int s = 0; s < substeps; ++s) {
    // The original scalar loop's per-node order: p + g_v·(T_sub − t), then
    // the W/E/N/S links in turn. Results match it bit-for-bit: the
    // library builds with -ffp-contract=off, so no step fuses into an FMA.
#pragma omp simd
    for (std::ptrdiff_t i = 0; i < nodes; ++i) {
      const double ti = t[i];
      double flux = p[i] + gv * (ts - ti);
      flux += gw[i] * (t[i - 1] - ti);
      flux += ge[i] * (t[i + 1] - ti);
      flux += gn[i] * (t[i - row] - ti);
      flux += gs[i] * (t[i + row] - ti);
      next[i] = ti + h * flux / cap;
    }
    std::swap(t, next);
  }
  if (substeps % 2 != 0) {
    state.plane_.swap(spare.plane_);
  }
}

void ThermalGrid::propagate_modal(double* temps, const double* p,
                                  double substeps, double h) const {
  thread_local std::vector<double> scratch;
  const std::size_t n = node_count();
  scratch.resize(4 * n);
  double* u = scratch.data();
  double* u_hat = u + n;
  double* p_hat = u_hat + n;
  double* work = p_hat + n;
  for (std::size_t i = 0; i < n; ++i) {
    u[i] = temps[i] - substrate_temp_;
  }
  // Û = Φᵀ·U, with Φ = Φ_rows ⊗ Φ_cols acting on the rows × cols plane
  // as Φ_rowsᵀ·U·Φ_cols.
  sandwich(phi_rows_t_, u, phi_cols_, u_hat, work);
  sandwich(phi_rows_t_, p, phi_cols_, p_hat, work);
  // Each mode relaxes toward its steady value Ŝ = p̂/λ by Euler's factor
  // 1 − hλ/C per substep, |factor| < 1 below the stability limit. After
  // infinitely many substeps (where h is not a number) only Ŝ is left.
  const bool settled = std::isinf(substeps);
  for (std::size_t i = 0; i < n; ++i) {
    const double lambda = eigenvalues_[i];
    const double steady = p_hat[i] / lambda;
    const double decay =
        settled ? 0.0 : std::pow(1.0 - h * lambda / cap_, substeps);
    u_hat[i] = steady + decay * (u_hat[i] - steady);
  }
  sandwich(phi_rows_, u_hat, phi_cols_t_, u, work);
  for (std::size_t i = 0; i < n; ++i) {
    temps[i] = substrate_temp_ + u[i];
  }
}

TADFA_TARGET_CLONES
void ThermalGrid::sandwich(const std::vector<double>& a, const double* x,
                           const std::vector<double>& b, double* out,
                           double* work) const {
  const std::size_t rows = node_rows_;
  const std::size_t cols = node_cols_;
  // work = a·x, then out = work·b: each row of the result accumulates
  // scaled rows of the right-hand factor, so every inner loop is
  // contiguous.
  std::fill_n(work, rows * cols, 0.0);
  for (std::size_t i = 0; i < rows; ++i) {
    double* dst = work + i * cols;
    for (std::size_t j = 0; j < rows; ++j) {
      const double c = a[i * rows + j];
      const double* src = x + j * cols;
#pragma omp simd
      for (std::size_t l = 0; l < cols; ++l) {
        dst[l] += c * src[l];
      }
    }
  }
  std::fill_n(out, rows * cols, 0.0);
  for (std::size_t i = 0; i < rows; ++i) {
    double* dst = out + i * cols;
    for (std::size_t j = 0; j < cols; ++j) {
      const double c = work[i * cols + j];
      const double* src = b.data() + j * cols;
#pragma omp simd
      for (std::size_t l = 0; l < cols; ++l) {
        dst[l] += c * src[l];
      }
    }
  }
}

ThermalState ThermalGrid::steady_state(
    std::span<const double> reg_power_w) const {
  TADFA_ASSERT(reg_power_w.size() == floorplan_->num_registers());
  ThermalState state = initial_state();
  propagate_modal(state.nodes().data(), node_power(reg_power_w),
                  std::numeric_limits<double>::infinity(), 0.0);
  return state;
}

std::vector<double> ThermalGrid::register_temps(
    const ThermalState& state) const {
  std::vector<double> out(floorplan_->num_registers());
  register_temps(state, out);
  return out;
}

TADFA_TARGET_CLONES
void ThermalGrid::register_temps(const ThermalState& state,
                                 std::span<double> out) const {
  TADFA_ASSERT(fits(state));
  TADFA_ASSERT(out.size() == floorplan_->num_registers());
  const double* t = state.nodes().data();
  double* o = out.data();
  const std::size_t regs = out.size();
  const std::size_t per_cell = std::size_t{subdivision_} * subdivision_;
  // Each cell's sum runs from +0 in node order, then is divided by s².
  // At s = 1, x/1 is x, and cell r is node r: the node grid is the
  // register grid, row-major, so node_index(r / cols, r % cols) == r.
  // That makes the readout one contiguous pass with no division.
  if (per_cell == 1) {
#pragma omp simd
    for (std::size_t r = 0; r < regs; ++r) {
      o[r] = 0.0 + t[r];
    }
    return;
  }
  const std::size_t* nodes = cell_nodes_.data();
  const auto divisor = static_cast<double>(per_cell);
  for (std::size_t r = 0; r < regs; ++r) {
    double sum = 0.0;
    for (std::size_t j = r * per_cell; j < (r + 1) * per_cell; ++j) {
      sum += t[nodes[j]];
    }
    o[r] = sum / divisor;
  }
}

double ThermalGrid::stored_energy(const ThermalState& state) const {
  TADFA_ASSERT(fits(state));
  double e = 0.0;
  for (const double t : state.nodes()) {
    e += cap_ * (t - substrate_temp_);
  }
  return e;
}

std::uint64_t ThermalGrid::config_digest() const {
  // The marker names the propagator: long windows' low bits come from
  // the modal path, so keys minted before it never match.
  return Hasher()
      .mix(floorplan_->config_digest())
      .mix(std::uint64_t{subdivision_})
      .mix(std::string_view{"modal propagator"})
      .digest();
}

}  // namespace tadfa::thermal
