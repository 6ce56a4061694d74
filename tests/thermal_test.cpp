// Property and unit tests for the RC thermal grid: physical invariants
// (cooling toward the substrate, monotone heating, symmetry), steady-state
// consistency, subdivision behavior, and map statistics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "support/serialize.hpp"
#include "support/statistics.hpp"
#include "thermal/grid.hpp"
#include "thermal/map_stats.hpp"

namespace tadfa::thermal {
namespace {

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
  for (double t : s.node_temps) {
    EXPECT_DOUBLE_EQ(t, grid.substrate_temp());
  }
}

TEST(ThermalGrid, NoPowerStaysAtSubstrate) {
  const auto fp = small_fp();
  const ThermalGrid grid(fp);
  ThermalState s = grid.initial_state();
  grid.step(s, no_power(fp), 1e-3);
  for (double t : s.node_temps) {
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

    const ThermalState steady = grid.steady_state(p);
    ThermalState transient = grid.initial_state();
    // 1 ms is far beyond the RC settling time (~ tens of µs).
    grid.step(transient, p, 1e-3);
    for (std::size_t i = 0; i < steady.node_temps.size(); ++i) {
      EXPECT_NEAR(transient.node_temps[i], steady.node_temps[i], 1e-3)
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
  for (std::size_t i = 0; i < one.node_temps.size(); ++i) {
    const double d1 = one.node_temps[i] - grid.substrate_temp();
    const double d2 = two.node_temps[i] - grid.substrate_temp();
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
  // Gauss-Seidel sweeps in a fixed order, leaving nK-level asymmetry.
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

TEST(ThermalGrid, SupportsBoundsNodeCountToInt32) {
  // large: 8x16 cells, so 128·s² nodes; 128·4096² = 2^31 is one too many.
  const auto large = machine::RegisterFileConfig::large_config();
  EXPECT_TRUE(ThermalGrid::supports(large, 1));
  EXPECT_TRUE(ThermalGrid::supports(large, 4095));
  EXPECT_FALSE(ThermalGrid::supports(large, 4096));
  EXPECT_FALSE(ThermalGrid::supports(large, 0));
  EXPECT_FALSE(ThermalGrid::supports(large, std::uint64_t{1} << 40));
}

TEST(ThermalGrid, StepWithZeroDtIsIdentity) {
  const auto fp = small_fp();
  for (unsigned sub : {1u, 2u, 4u}) {
    const ThermalGrid grid(fp, sub);
    ThermalState s = grid.initial_state();
    s.node_temps[0] += 5;
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
      for (double t : s.node_temps) {
        h.mix(t);
      }
    }
    EXPECT_EQ(h.digest(), digest) << "sub=" << sub;
  }
}

TEST(ThermalGrid, StepKeepsRecordedBitsOverLongWindows) {
  // Windows of thousands of substeps, where Euler can reach its exact
  // fixed point and step() stops early. The digests were recorded on
  // x86-64 by a step loop that ran every substep, so the early stop must
  // not move one bit. Same shape and literal rules as the test above.
#if !defined(__x86_64__)
  GTEST_SKIP() << "literals recorded on x86-64";
#endif
  const auto fp = small_fp();
  const std::pair<unsigned, std::uint64_t> expected[] = {
      {1u, 0x4f60316e246674a8ull},
      {2u, 0x6f806b4e469d14a2ull},
      {4u, 0x62d15f57fc1893c5ull},
  };
  // Multiples of max_stable_dt(). At subdivision 1 every longer window
  // reaches the fixed point; the finer grids settle more slowly and run
  // every substep.
  const double dt_scale[] = {3e3, 2e4};
  for (const auto& [sub, digest] : expected) {
    const ThermalGrid grid(fp, sub);
    ThermalState s = grid.initial_state();
    Hasher h;
    for (std::size_t i = 0; i < 20; ++i) {
      std::vector<double> p(fp.num_registers());
      for (std::size_t r = 0; r < p.size(); ++r) {
        p[r] = 0.02 * static_cast<double>((r * 7 + i * 3) % 11);
      }
      grid.step(s, p, dt_scale[i % 2] * grid.max_stable_dt());
      for (double t : s.node_temps) {
        h.mix(t);
      }
    }
    EXPECT_EQ(h.digest(), digest) << "sub=" << sub;
  }
}

TEST(ThermalGrid, HugeWindowReachesSteadyState) {
  // A window far past INT_MAX substeps (1e3 s is ~1.8e10 at subdivision
  // 1), or an infinite one, runs at the stability limit to Euler's fixed
  // point: the steady state, not one unstable step of length dt.
  for (const auto& fp : {default_fp(), small_fp()}) {
    for (unsigned sub : {1u, 2u}) {
      const ThermalGrid grid(fp, sub);
      auto p = no_power(fp);
      p[0] = 2e-3;
      p[5] = 1e-3;
      p[10] = 0.5e-3;
      const ThermalState steady = grid.steady_state(p);
      for (double dt : {1e3, std::numeric_limits<double>::infinity()}) {
        ThermalState s = grid.initial_state();
        grid.step(s, p, dt);
        for (std::size_t i = 0; i < s.node_temps.size(); ++i) {
          ASSERT_NEAR(s.node_temps[i], steady.node_temps[i], 1e-6)
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
