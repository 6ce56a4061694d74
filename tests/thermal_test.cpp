// Property and unit tests for the RC thermal grid: physical invariants
// (cooling toward the substrate, monotone heating, symmetry), the modal
// path against explicit Euler and the steady state against Gauss-Seidel,
// subdivision behavior, and map statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <sstream>
#include <utility>

#include "machine/machine_config.hpp"
#include "support/rng.hpp"
#include "support/serialize.hpp"
#include "support/statistics.hpp"
#include "thermal/grid.hpp"
#include "thermal/map_stats.hpp"

namespace tadfa::thermal {
namespace {

/// The grid's RC model written out node by node from the technology
/// parameters, with every edge checked: plain explicit Euler and
/// full-sweep Gauss-Seidel, the oracles for step()'s modal path and for
/// steady_state(). padded_euler is step()'s Euler loop in scalar form on
/// fresh planes, the bit-for-bit oracle for how step() keeps its planes.
struct ReferenceGrid {
  explicit ReferenceGrid(const ThermalGrid& grid) : grid(&grid) {
    const auto& cfg = grid.floorplan().config();
    const auto& tech = cfg.tech;
    const unsigned sub = grid.subdivision();
    rows = std::size_t{cfg.rows} * sub;
    cols = std::size_t{cfg.cols} * sub;
    const double node_w = tech.cell_width_m / sub;
    const double node_h = tech.cell_height_m / sub;
    const double k = tech.silicon_conductivity;
    cap = node_w * node_h * tech.die_thickness_m * tech.silicon_volumetric_heat;
    const double r_cell =
        tech.vertical_resistance_scale /
        (2.0 * k * std::sqrt(tech.cell_area_m2() / 3.14159265358979));
    gv = (1.0 / r_cell) / (sub * sub);
    gh = k * (node_h * tech.die_thickness_m) / node_w;
    gns = k * (node_w * tech.die_thickness_m) / node_h;
    stable_dt = 0.9 * cap / (gv + 2 * gh + 2 * gns);
  }

  std::vector<double> node_power(std::span<const double> reg_power_w) const {
    const unsigned sub = grid->subdivision();
    std::vector<double> p(rows * cols);
    for (std::size_t i = 0; i < p.size(); ++i) {
      p[i] = reg_power_w[grid->register_of(i)] * (1.0 / (sub * sub));
    }
    return p;
  }

  /// `substeps` explicit-Euler substeps of `h` seconds on `t`, on the
  /// rise above the substrate. Raw pointers keep unoptimized sanitizer
  /// builds of this loop fast enough for 10⁵ substeps.
  void euler(std::vector<double>& t, std::span<const double> reg_power_w,
             std::int64_t substeps, double h) const {
    const std::vector<double> power = node_power(reg_power_w);
    const double ts = grid->substrate_temp();
    std::vector<double> planes(2 * t.size());
    double* u = planes.data();
    double* next = u + t.size();
    const double* p = power.data();
    for (std::size_t i = 0; i < t.size(); ++i) {
      u[i] = t[i] - ts;
    }
    for (std::int64_t s = 0; s < substeps; ++s) {
      for (std::size_t row = 0, i = 0; row < rows; ++row) {
        for (std::size_t col = 0; col < cols; ++col, ++i) {
          const double ui = u[i];
          double q = p[i] - gv * ui;
          if (col > 0) {
            q += gh * (u[i - 1] - ui);
          }
          if (col + 1 < cols) {
            q += gh * (u[i + 1] - ui);
          }
          if (row > 0) {
            q += gns * (u[i - cols] - ui);
          }
          if (row + 1 < rows) {
            q += gns * (u[i + cols] - ui);
          }
          next[i] = ui + h * q / cap;
        }
      }
      std::swap(u, next);
    }
    for (std::size_t i = 0; i < t.size(); ++i) {
      t[i] = ts + u[i];
    }
  }

  /// `substeps` substeps of step()'s own Euler loop, written out in scalar
  /// form on two fresh [pad][nodes][pad] planes whose pads hold the
  /// substrate temperature: every node reads its four neighbors at t[i±1]
  /// and t[i±cols], and an absent link has conductance 0. The loop reads
  /// a pad only through such a link.
  void padded_euler(std::vector<double>& t,
                    std::span<const double> reg_power_w, int substeps,
                    double h) const {
    const std::vector<double> p = node_power(reg_power_w);
    const double ts = grid->substrate_temp();
    const std::size_t n = t.size();
    std::vector<double> cur(n + 2 * cols, ts);
    std::vector<double> next(n + 2 * cols, ts);
    std::copy(t.begin(), t.end(), cur.begin() + cols);
    for (int s = 0; s < substeps; ++s) {
      for (std::size_t row = 0, i = 0; row < rows; ++row) {
        for (std::size_t col = 0; col < cols; ++col, ++i) {
          const double* c = cur.data() + cols + i;
          const double ti = *c;
          double flux = p[i] + gv * (ts - ti);
          flux += (col > 0 ? gh : 0.0) * (*(c - 1) - ti);
          flux += (col + 1 < cols ? gh : 0.0) * (*(c + 1) - ti);
          flux += (row > 0 ? gns : 0.0) * (*(c - cols) - ti);
          flux += (row + 1 < rows ? gns : 0.0) * (*(c + cols) - ti);
          next[cols + i] = ti + h * flux / cap;
        }
      }
      std::swap(cur, next);
    }
    std::copy_n(cur.begin() + cols, n, t.begin());
  }

  /// Gauss-Seidel on the rise, (g_v + Σg)·u_i = p_i + Σ g·u_j, until no
  /// sweep moves a node by 1e-14 K. The matrix is strictly diagonally
  /// dominant, so this converges from any start.
  std::vector<double> steady_state(std::span<const double> reg_power_w) const {
    const std::vector<double> p = node_power(reg_power_w);
    std::vector<double> u(rows * cols, 0.0);
    for (double worst = 1.0; worst > 1e-14;) {
      worst = 0.0;
      for (std::size_t i = 0; i < u.size(); ++i) {
        const std::size_t row = i / cols;
        const std::size_t col = i % cols;
        double g_sum = gv;
        double rhs = p[i];
        auto link = [&](double g, std::size_t j) {
          g_sum += g;
          rhs += g * u[j];
        };
        if (col > 0) {
          link(gh, i - 1);
        }
        if (col + 1 < cols) {
          link(gh, i + 1);
        }
        if (row > 0) {
          link(gns, i - cols);
        }
        if (row + 1 < rows) {
          link(gns, i + cols);
        }
        const double updated = rhs / g_sum;
        worst = std::max(worst, std::abs(updated - u[i]));
        u[i] = updated;
      }
    }
    for (double& t : u) {
      t += grid->substrate_temp();
    }
    return u;
  }

  const ThermalGrid* grid;
  std::size_t rows = 0;
  std::size_t cols = 0;
  double cap = 0, gv = 0, gh = 0, gns = 0, stable_dt = 0;
};

double max_abs_diff(std::span<const double> a, std::span<const double> b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

machine::Floorplan small_fp() {
  return machine::Floorplan(machine::RegisterFileConfig::small_config());
}

machine::Floorplan default_fp() {
  return machine::Floorplan(machine::RegisterFileConfig::default_config());
}

std::vector<double> no_power(const machine::Floorplan& fp) {
  return std::vector<double>(fp.num_registers(), 0.0);
}

TEST(ThermalGrid, InitialStateAtSubstrate) {
  const auto fp = small_fp();
  const ThermalGrid grid(fp);
  const ThermalState s = grid.initial_state();
  for (double t : s.nodes()) {
    EXPECT_DOUBLE_EQ(t, grid.substrate_temp());
  }
}

TEST(ThermalGrid, NoPowerStaysAtSubstrate) {
  const auto fp = small_fp();
  const ThermalGrid grid(fp);
  ThermalState s = grid.initial_state();
  grid.step(s, no_power(fp), 1e-3);
  for (double t : s.nodes()) {
    EXPECT_NEAR(t, grid.substrate_temp(), 1e-9);
  }
}

TEST(ThermalGrid, HeatingRaisesPoweredCell) {
  const auto fp = small_fp();
  const ThermalGrid grid(fp);
  ThermalState s = grid.initial_state();
  auto p = no_power(fp);
  p[5] = 1e-3;  // 1 mW on register 5
  grid.step(s, p, 1e-4);
  const auto temps = grid.register_temps(s);
  EXPECT_GT(temps[5], grid.substrate_temp());
  // The powered cell is the hottest.
  for (std::size_t r = 0; r < temps.size(); ++r) {
    EXPECT_LE(temps[r], temps[5]);
  }
}

TEST(ThermalGrid, CoolingIsMonotoneTowardSubstrate) {
  const auto fp = small_fp();
  const ThermalGrid grid(fp);
  ThermalState s = grid.initial_state();
  auto p = no_power(fp);
  p[0] = 2e-3;
  grid.step(s, p, 1e-4);
  const double hot = grid.register_temps(s)[0];

  // Remove power; each step must strictly reduce the excess temperature.
  // Steps are a couple of RC time constants long (the grid settles within
  // ~100 ns at this geometry), so the decay is visible but not complete.
  double prev = hot;
  for (int i = 0; i < 5; ++i) {
    grid.step(s, no_power(fp), 2 * grid.max_stable_dt());
    const double now = grid.register_temps(s)[0];
    EXPECT_LT(now, prev);
    EXPECT_GE(now, grid.substrate_temp() - 1e-9);
    prev = now;
  }
}

TEST(ThermalGrid, TransientApproachesSteadyState) {
  const auto fp = small_fp();
  for (unsigned sub : {1u, 2u, 4u}) {
    const ThermalGrid grid(fp, sub);
    auto p = no_power(fp);
    p[5] = 1e-3;
    p[10] = 0.5e-3;

    const std::vector<double> steady = ReferenceGrid(grid).steady_state(p);
    ThermalState transient = grid.initial_state();
    // 1 ms is far beyond the RC settling time (~ tens of µs).
    grid.step(transient, p, 1e-3);
    for (std::size_t i = 0; i < steady.size(); ++i) {
      EXPECT_NEAR(transient.nodes()[i], steady[i], 1e-3)
          << "sub=" << sub << " node=" << i;
    }
  }
}

TEST(ThermalGrid, SteadyStateLinearInPower) {
  const auto fp = small_fp();
  const ThermalGrid grid(fp);
  auto p = no_power(fp);
  p[3] = 1e-3;
  const ThermalState one = grid.steady_state(p);
  for (auto& w : p) {
    w *= 2;
  }
  const ThermalState two = grid.steady_state(p);
  for (std::size_t i = 0; i < one.nodes().size(); ++i) {
    const double d1 = one.nodes()[i] - grid.substrate_temp();
    const double d2 = two.nodes()[i] - grid.substrate_temp();
    EXPECT_NEAR(d2, 2 * d1, 1e-6);
  }
}

TEST(ThermalGrid, SymmetricPowerGivesSymmetricMap) {
  const auto fp = small_fp();  // 4x4
  const ThermalGrid grid(fp);
  auto p = no_power(fp);
  // Power the four corners equally.
  p[fp.at(0, 0)] = 1e-3;
  p[fp.at(0, 3)] = 1e-3;
  p[fp.at(3, 0)] = 1e-3;
  p[fp.at(3, 3)] = 1e-3;
  const auto temps = grid.register_temps(grid.steady_state(p));
  EXPECT_NEAR(temps[fp.at(0, 0)], temps[fp.at(0, 3)], 1e-6);
  EXPECT_NEAR(temps[fp.at(0, 0)], temps[fp.at(3, 0)], 1e-6);
  EXPECT_NEAR(temps[fp.at(0, 0)], temps[fp.at(3, 3)], 1e-6);
  EXPECT_NEAR(temps[fp.at(1, 1)], temps[fp.at(2, 2)], 1e-6);
}

TEST(ThermalGrid, ConcentratedPowerHotterPeakThanSpread) {
  // The physical core of Fig. 1: same total power, concentrated vs spread.
  const auto fp = default_fp();
  const ThermalGrid grid(fp);
  const double total = 8e-3;

  auto concentrated = no_power(fp);
  for (int i = 0; i < 8; ++i) {
    concentrated[static_cast<std::size_t>(i)] = total / 8;  // one row corner
  }
  auto spread = no_power(fp);
  for (std::size_t r = 0; r < spread.size(); ++r) {
    spread[r] = total / static_cast<double>(spread.size());
  }

  const auto tc = grid.register_temps(grid.steady_state(concentrated));
  const auto ts = grid.register_temps(grid.steady_state(spread));
  const MapStats sc = compute_map_stats(fp, tc);
  const MapStats ss = compute_map_stats(fp, ts);
  EXPECT_GT(sc.peak_k, ss.peak_k);
  EXPECT_GT(sc.max_gradient_k, ss.max_gradient_k * 2);
  EXPECT_GT(sc.stddev_k, ss.stddev_k);
}

TEST(ThermalGrid, SubdivisionRefinesWithoutChangingTotals) {
  const auto fp = small_fp();
  const ThermalGrid coarse(fp, 1);
  const ThermalGrid fine(fp, 3);
  EXPECT_EQ(coarse.node_count(), 16u);
  EXPECT_EQ(fine.node_count(), 16u * 9u);

  auto p = no_power(fp);
  p[5] = 1e-3;
  const auto tc = coarse.register_temps(coarse.steady_state(p));
  const auto tf = fine.register_temps(fine.steady_state(p));
  // Same physics at cell granularity: temperatures agree to ~15%
  // of the local temperature rise.
  for (std::size_t r = 0; r < tc.size(); ++r) {
    const double rise_c = tc[r] - coarse.substrate_temp();
    const double rise_f = tf[r] - fine.substrate_temp();
    EXPECT_NEAR(rise_f, rise_c, 0.15 * std::max(rise_c, 1e-6) + 1e-6);
  }
}

TEST(ThermalGrid, NodesOfPartitionTheGrid) {
  const auto fp = small_fp();
  const ThermalGrid grid(fp, 2);
  std::vector<int> owner_count(grid.node_count(), 0);
  for (machine::PhysReg r = 0; r < fp.num_registers(); ++r) {
    for (std::size_t n : grid.nodes_of(r)) {
      ++owner_count[n];
      EXPECT_EQ(grid.register_of(n), r);
    }
    EXPECT_EQ(grid.nodes_of(r).size(), 4u);
  }
  for (int c : owner_count) {
    EXPECT_EQ(c, 1);
  }
}

TEST(ThermalGrid, RegisterTempsIsThePlainCellAverage) {
  // Each register's temperature is its cell's node sum, taken from +0 in
  // row-major node order, divided by s², bit for bit, with the node
  // indices worked out here from the floorplan. s = 1 reads node r as
  // cell r with no division; s = 2, 3, 4 divide.
  Rng rng(11);
  for (const auto& config : {machine::RegisterFileConfig::default_config(),
                             machine::RegisterFileConfig::large_config()}) {
    const machine::Floorplan fp(config);
    for (unsigned sub : {1u, 2u, 3u, 4u}) {
      const ThermalGrid grid(fp, sub);
      const std::size_t node_cols = std::size_t{fp.cols()} * sub;
      ThermalState s = grid.initial_state();
      for (double& t : s.nodes()) {
        t = rng.uniform(300.0, 420.0);
      }
      const auto temps = grid.register_temps(s);
      ASSERT_EQ(temps.size(), fp.num_registers());
      for (machine::PhysReg r = 0; r < fp.num_registers(); ++r) {
        double sum = 0.0;
        for (std::size_t dr = 0; dr < sub; ++dr) {
          for (std::size_t dc = 0; dc < sub; ++dc) {
            const std::size_t row = std::size_t{fp.row_of(r)} * sub + dr;
            const std::size_t col = std::size_t{fp.col_of(r)} * sub + dc;
            sum += s.nodes()[row * node_cols + col];
          }
        }
        EXPECT_EQ(std::bit_cast<std::uint64_t>(temps[r]),
                  std::bit_cast<std::uint64_t>(sum / (sub * sub)))
            << fp.num_registers() << " registers, s = " << sub
            << ", r = " << r;
      }
    }
  }
}

TEST(ThermalGrid, StoredEnergyZeroAtSubstrate) {
  const auto fp = small_fp();
  const ThermalGrid grid(fp);
  EXPECT_DOUBLE_EQ(grid.stored_energy(grid.initial_state()), 0.0);
}

TEST(ThermalGrid, EnergyBalanceDuringHeating) {
  // Injected energy = stored energy + energy leaked to substrate; with a
  // short step and small temperature rise, stored ≈ injected.
  const auto fp = small_fp();
  for (unsigned sub : {1u, 2u, 4u}) {
    const ThermalGrid grid(fp, sub);
    ThermalState s = grid.initial_state();
    auto p = no_power(fp);
    p[5] = 1e-3;
    const double dt = grid.max_stable_dt();  // single tiny step
    grid.step(s, p, dt);
    const double injected = 1e-3 * dt;
    const double stored = grid.stored_energy(s);
    EXPECT_GT(stored, 0.0) << "sub=" << sub;
    EXPECT_LE(stored, injected * 1.0000001) << "sub=" << sub;
    EXPECT_GT(stored, injected * 0.5) << "sub=" << sub;  // most still stored
  }
}

TEST(ThermalGrid, MaxStableDtPositiveAndScaleDependent) {
  const auto fp = small_fp();
  const ThermalGrid g1(fp, 1);
  const ThermalGrid g2(fp, 2);
  EXPECT_GT(g1.max_stable_dt(), 0.0);
  // Finer grids need smaller steps.
  EXPECT_LT(g2.max_stable_dt(), g1.max_stable_dt());
}

TEST(ThermalGrid, SupportsCapsNodeCountAt2To20) {
  // large: 8x16 cells, so 128·s² nodes; 128·90² = 1,036,800 fits and
  // 128·91² = 1,059,968 is past 2^20. default: 64·128² = 2^20 exactly.
  const auto large = machine::RegisterFileConfig::large_config();
  EXPECT_TRUE(ThermalGrid::supports(large, 1));
  EXPECT_TRUE(ThermalGrid::supports(large, 90));
  EXPECT_FALSE(ThermalGrid::supports(large, 91));
  EXPECT_FALSE(ThermalGrid::supports(large, 4000));
  EXPECT_FALSE(ThermalGrid::supports(large, 0));
  EXPECT_FALSE(ThermalGrid::supports(large, std::uint64_t{1} << 40));
  const auto dflt = machine::RegisterFileConfig::default_config();
  EXPECT_TRUE(ThermalGrid::supports(dflt, 128));
  EXPECT_FALSE(ThermalGrid::supports(dflt, 129));
}

TEST(ThermalGrid, StepWithZeroDtIsIdentity) {
  const auto fp = small_fp();
  for (unsigned sub : {1u, 2u, 4u}) {
    const ThermalGrid grid(fp, sub);
    ThermalState s = grid.initial_state();
    s.nodes()[0] += 5;
    const ThermalState before = s;
    grid.step(s, no_power(fp), 0.0);
    EXPECT_EQ(s, before) << "sub=" << sub;
  }
}

TEST(ThermalGrid, StepKeepsRecordedBitsAcrossSubdivisions) {
  // Digests of every node temperature after every step of a fixed power
  // and dt sequence, recorded on x86-64 through the original scalar step
  // loop. The slot-plane loop performs the same per-node operations in
  // the same order, so not one bit may move. The grid forgets last-bit
  // differences within a few steps, so the whole trajectory is hashed,
  // and the powers are large enough (up to 0.2 W) that a reordered sum
  // shows. Other targets may contract into FMA, so the literals bind on
  // x86-64 only.
#if !defined(__x86_64__)
  GTEST_SKIP() << "literals recorded on x86-64";
#endif
  const auto fp = small_fp();
  const std::pair<unsigned, std::uint64_t> expected[] = {
      {1u, 0x20e6f295b859689full},
      {2u, 0x2f0be0666c1f85fcull},
      {4u, 0xabbee09d60f074f3ull},
  };
  // Multiples of max_stable_dt(): one step, a fraction of one, and
  // integral and non-integral substep counts.
  const double dt_scale[] = {1.0, 0.37, 2.5, 16.0, 7.3};
  for (const auto& [sub, digest] : expected) {
    const ThermalGrid grid(fp, sub);
    ThermalState s = grid.initial_state();
    Hasher h;
    for (std::size_t i = 0; i < 40; ++i) {
      std::vector<double> p(fp.num_registers());
      for (std::size_t r = 0; r < p.size(); ++r) {
        p[r] = 0.02 * static_cast<double>((r * 7 + i * 3) % 11);
      }
      grid.step(s, p, dt_scale[i % 5] * grid.max_stable_dt());
      for (double t : s.nodes()) {
        h.mix(t);
      }
    }
    EXPECT_EQ(h.digest(), digest) << "sub=" << sub;
  }
}

TEST(ThermalGrid, SparePlaneKeepsPadsFiniteAcrossLayouts) {
  // Every grid a thread steps shares one spare plane. The default 8×8
  // file and a 3×16 one pad their 64 and 48 nodes to 80 values each,
  // with pads of 8 and 16, so a spare checked by length alone would give
  // the 3×16 grid pads that held the 8×8 grid's nodes. One thread
  // alternates the two at odd and even substep counts, with NaN and ±inf
  // nodes in the 8×8 state, and every node must match padded_euler bit
  // for bit. A NaN matches any NaN: IEEE leaves a NaN result's payload
  // open.
  machine::RegisterFileConfig wide_config;
  wide_config.num_registers = 48;
  wide_config.rows = 3;
  wide_config.cols = 16;
  wide_config.banks = 4;
  ASSERT_TRUE(wide_config.valid());
  const machine::Floorplan square_fp = default_fp();
  const machine::Floorplan wide_fp(wide_config);
  const ThermalGrid square(square_fp);
  const ThermalGrid wide(wide_fp);
  ASSERT_EQ(square.node_count() + 2 * 8, wide.node_count() + 2 * 16);

  Rng rng(23);
  ThermalState states[] = {square.initial_state(), wide.initial_state()};
  for (ThermalState& s : states) {
    for (double& t : s.nodes()) {
      t += rng.uniform(0.0, 5.0);
    }
  }
  states[0].nodes()[0] = std::numeric_limits<double>::quiet_NaN();
  states[0].nodes()[27] = std::numeric_limits<double>::infinity();
  states[0].nodes()[46] = -std::numeric_limits<double>::infinity();

  const ThermalGrid* grids[] = {&square, &wide};
  std::size_t nan_nodes = 0;
  for (int round = 0; round < 8; ++round) {
    for (std::size_t g = 0; g < 2; ++g) {
      const ThermalGrid& grid = *grids[g];
      ThermalState& s = states[g];
      const int substeps = 1 + static_cast<int>((round + g) % 4);
      const double dt = (substeps - 0.5) * grid.max_stable_dt();
      ASSERT_EQ(std::ceil(dt / grid.max_stable_dt()), substeps);
      std::vector<double> p(grid.floorplan().num_registers());
      for (double& w : p) {
        w = rng.uniform(0.0, 0.02);
      }
      std::vector<double> expected(s.nodes().begin(), s.nodes().end());
      ReferenceGrid(grid).padded_euler(expected, p, substeps, dt / substeps);
      grid.step(s, p, dt);
      SCOPED_TRACE(testing::Message() << "grid " << g << ", round " << round);
      for (std::size_t i = 0; i < expected.size(); ++i) {
        const double got = s.nodes()[i];
        if (std::isnan(expected[i])) {
          ++nan_nodes;
          EXPECT_TRUE(std::isnan(got)) << "node " << i;
        } else {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                    std::bit_cast<std::uint64_t>(expected[i]))
              << "node " << i;
        }
      }
    }
  }
  // The 8×8 state did carry NaN into the spare.
  EXPECT_GT(nan_nodes, 0u);
}

TEST(ThermalGrid, ModalWindowMatchesEulerLoop) {
  // Windows from just below the modal cutoff, max(64, node rows + node
  // cols) substeps, up to 1e5 substeps, each against the same window run
  // substep by substep, under random powers of up to 0.02 W per register
  // from a perturbed state. Below the cutoff step() runs the substeps
  // itself; from it on, the closed form may differ from them in the last
  // places only.
  Rng rng(19);
  double worst = 0.0;
  for (const char* name : {"default", "small", "dense45", "large"}) {
    const machine::Floorplan fp(machine::find_machine(name)->rf);
    for (unsigned sub : {1u, 2u, 4u}) {
      const ThermalGrid grid(fp, sub);
      const ReferenceGrid ref(grid);
      ASSERT_EQ(ref.stable_dt, grid.max_stable_dt()) << name;
      const std::int64_t cutoff = std::max<std::int64_t>(
          64, static_cast<std::int64_t>(ref.rows + ref.cols));
      ThermalState s = grid.initial_state();
      for (double& t : s.nodes()) {
        t += rng.uniform(0.0, 5.0);
      }
      const std::int64_t windows[] = {cutoff - 1, cutoff, 1000, 20000,
                                      100000};
      for (const std::int64_t substeps : windows) {
        std::vector<double> p(fp.num_registers());
        for (double& w : p) {
          w = rng.uniform(0.0, 0.02);
        }
        // Half a substep short of `substeps` stability limits.
        const double dt =
            (static_cast<double>(substeps) - 0.5) * grid.max_stable_dt();
        ASSERT_EQ(std::ceil(dt / grid.max_stable_dt()),
                  static_cast<double>(substeps));
        std::vector<double> expected(s.nodes().begin(), s.nodes().end());
        ref.euler(expected, p, substeps, dt / static_cast<double>(substeps));
        grid.step(s, p, dt);
        const double diff = max_abs_diff(s.nodes(), expected);
        EXPECT_LE(diff, 1e-9)
            << name << " sub=" << sub << " substeps=" << substeps;
        worst = std::max(worst, diff);
      }
    }
  }
  std::ostringstream worst_k;
  worst_k << worst;
  RecordProperty("max_abs_diff_k", worst_k.str());

  // Digests of every node after every window of a fixed power sequence,
  // recorded on x86-64 from the modal path, so that no later change
  // moves its bits unnoticed. Same shape and literal rules as
  // StepKeepsRecordedBitsAcrossSubdivisions.
#if defined(__x86_64__)
  const auto small = small_fp();
  const std::pair<unsigned, std::uint64_t> expected[] = {
      {1u, 0xbcf0272d9b4eec4dull},
      {2u, 0xf2daf22741f86010ull},
      {4u, 0x490a9031d60cc5edull},
  };
  const double dt_scale[] = {3e3, 2e4};
  for (const auto& [sub, digest] : expected) {
    const ThermalGrid grid(small, sub);
    ThermalState s = grid.initial_state();
    Hasher h;
    for (std::size_t i = 0; i < 20; ++i) {
      std::vector<double> p(small.num_registers());
      for (std::size_t r = 0; r < p.size(); ++r) {
        p[r] = 0.02 * static_cast<double>((r * 7 + i * 3) % 11);
      }
      grid.step(s, p, dt_scale[i % 2] * grid.max_stable_dt());
      for (double t : s.nodes()) {
        h.mix(t);
      }
    }
    EXPECT_EQ(h.digest(), digest) << "sub=" << sub;
  }
#endif
}

TEST(ThermalGrid, HugeWindowReachesSteadyState) {
  // A window far past INT_MAX substeps (1e3 s is ~1.8e10 at subdivision
  // 1), or an infinite one, lands on the steady state, as does
  // steady_state() itself: Gauss-Seidel's, to 1e-9 K.
  for (const auto& fp : {default_fp(), small_fp()}) {
    for (unsigned sub : {1u, 2u}) {
      const ThermalGrid grid(fp, sub);
      auto p = no_power(fp);
      p[0] = 2e-3;
      p[5] = 1e-3;
      p[10] = 0.5e-3;
      const std::vector<double> steady = ReferenceGrid(grid).steady_state(p);
      EXPECT_LE(max_abs_diff(grid.steady_state(p).nodes(), steady), 1e-9)
          << fp.num_registers() << " registers, sub=" << sub;
      for (double dt : {1e3, std::numeric_limits<double>::infinity()}) {
        ThermalState s = grid.initial_state();
        grid.step(s, p, dt);
        for (std::size_t i = 0; i < s.nodes().size(); ++i) {
          ASSERT_NEAR(s.nodes()[i], steady[i], 1e-9)
              << fp.num_registers() << " registers, sub=" << sub
              << ", dt=" << dt << ", node " << i;
        }
      }
    }
  }
}

// -------------------------------------------------------------- map stats ----

TEST(MapStats, UniformMapHasNoGradient) {
  const auto fp = small_fp();
  const std::vector<double> temps(fp.num_registers(), 350.0);
  const MapStats s = compute_map_stats(fp, temps);
  EXPECT_DOUBLE_EQ(s.peak_k, 350.0);
  EXPECT_DOUBLE_EQ(s.range_k, 0.0);
  EXPECT_DOUBLE_EQ(s.max_gradient_k, 0.0);
  EXPECT_DOUBLE_EQ(s.stddev_k, 0.0);
}

TEST(MapStats, GradientIsNeighborDelta) {
  const auto fp = small_fp();
  std::vector<double> temps(fp.num_registers(), 340.0);
  temps[fp.at(1, 1)] = 345.0;  // spike: 5 K above its 4 neighbors
  const MapStats s = compute_map_stats(fp, temps);
  EXPECT_DOUBLE_EQ(s.max_gradient_k, 5.0);
  EXPECT_DOUBLE_EQ(s.peak_k, 345.0);
  EXPECT_DOUBLE_EQ(s.range_k, 5.0);
}

TEST(MapStats, HotspotsAboveSigmaThreshold) {
  const auto fp = small_fp();
  std::vector<double> temps(fp.num_registers(), 340.0);
  temps[3] = 360.0;
  const auto hs = hotspots(fp, temps, 1.5);
  ASSERT_EQ(hs.size(), 1u);
  EXPECT_EQ(hs[0], 3u);
}

TEST(MapStats, NoHotspotsOnFlatMap) {
  const auto fp = small_fp();
  const std::vector<double> temps(fp.num_registers(), 340.0);
  EXPECT_TRUE(hotspots(fp, temps).empty());
}

}  // namespace
}  // namespace tadfa::thermal
