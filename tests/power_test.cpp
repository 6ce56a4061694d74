// Unit tests for src/power: access traces, windowing, dynamic power,
// temperature-dependent leakage, gating, trace energy.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <utility>

#include "machine/machine_config.hpp"
#include "power/access_trace.hpp"
#include "power/model.hpp"
#include "support/rng.hpp"

namespace tadfa::power {
namespace {

machine::RegisterFileConfig cfg() {
  return machine::RegisterFileConfig::small_config();
}

TEST(AccessTrace, TotalsSplitReadsWrites) {
  AccessTrace t(16);
  t.record(0, 3, false);
  t.record(1, 3, false);
  t.record(2, 3, true);
  t.record(3, 7, true);
  const auto totals = t.totals();
  EXPECT_EQ(totals[3].reads, 2u);
  EXPECT_EQ(totals[3].writes, 1u);
  EXPECT_EQ(totals[3].total(), 3u);
  EXPECT_EQ(totals[7].writes, 1u);
  EXPECT_EQ(totals[0].total(), 0u);
}

TEST(AccessTrace, WindowSelectsHalfOpenRange) {
  AccessTrace t(16);
  t.record(0, 1, false);
  t.record(5, 1, false);
  t.record(10, 1, false);
  const auto w = t.window(5, 10);
  EXPECT_EQ(w[1].reads, 1u);
  const auto all = t.window(0, 11);
  EXPECT_EQ(all[1].reads, 3u);
  const auto none = t.window(11, 20);
  EXPECT_EQ(none[1].reads, 0u);
}

TEST(AccessTrace, DurationRoundTrip) {
  AccessTrace t(4);
  t.set_duration_cycles(1234);
  EXPECT_EQ(t.duration_cycles(), 1234u);
}

TEST(PowerModel, AccessEnergyUsesReadWriteCosts) {
  const PowerModel m(cfg());
  const auto& tech = cfg().tech;
  AccessCounts c;
  c.reads = 3;
  c.writes = 2;
  EXPECT_DOUBLE_EQ(m.access_energy(c),
                   3 * tech.read_energy_j + 2 * tech.write_energy_j);
}

TEST(PowerModel, DynamicPowerAveragesOverWindow) {
  const PowerModel m(cfg());
  std::vector<AccessCounts> counts(16);
  counts[2].reads = 100;
  const auto p = m.dynamic_power(counts, 100);
  // 100 reads in 100 cycles = 1 read per cycle.
  const double expected =
      cfg().tech.read_energy_j / cfg().tech.cycle_seconds();
  EXPECT_NEAR(p[2], expected, expected * 1e-9);
  EXPECT_DOUBLE_EQ(p[0], 0.0);
}

TEST(PowerModel, DynamicPowerScalesInverselyWithWindow) {
  const PowerModel m(cfg());
  std::vector<AccessCounts> counts(16);
  counts[0].writes = 10;
  const auto p1 = m.dynamic_power(counts, 100);
  const auto p2 = m.dynamic_power(counts, 200);
  EXPECT_NEAR(p1[0], 2 * p2[0], 1e-15);
}

TEST(PowerModel, LeakageTracksTemperature) {
  const PowerModel m(cfg());
  const machine::Floorplan fp(cfg());
  std::vector<double> cold(16, 320.0);
  std::vector<double> hot(16, 360.0);
  const auto pl_cold = m.leakage_power(fp, cold);
  const auto pl_hot = m.leakage_power(fp, hot);
  for (std::size_t r = 0; r < 16; ++r) {
    EXPECT_GT(pl_hot[r], pl_cold[r]);
  }
}

TEST(PowerModel, GatedBankLeaksFraction) {
  const PowerModel m(cfg());  // small config: 2 banks over 4 cols
  const machine::Floorplan fp(cfg());
  std::vector<double> temps(16, 340.0);
  std::vector<bool> gated{true, false};
  const auto p = m.leakage_power(fp, temps, gated);
  const double nominal = cfg().tech.leakage_at(340.0);
  for (machine::PhysReg r = 0; r < 16; ++r) {
    if (fp.bank_of(r) == 0) {
      EXPECT_NEAR(p[r], nominal * PowerModel::gated_leakage_fraction, 1e-15);
    } else {
      EXPECT_NEAR(p[r], nominal, 1e-15);
    }
  }
}

TEST(PowerModel, LeakagePowerEqualsLeakageAtBitForBit) {
  // leakage_power's vectorized pass (the host's clone of it) and
  // leakage_at's scalar call run the same kernel. The register counts put
  // the vector body and the remainder at every width (2, 4 and 8 lanes)
  // through it; each special temperature, at both ends of the file,
  // drives the kernel's NaN, overflow (+inf) and underflow (0) lanes.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng rng(5);
  for (const std::uint32_t n :
       {1u, 2u, 3u, 5u, 7u, 8u, 9u, 15u, 16u, 17u, 63u, 64u, 65u, 127u, 128u}) {
    machine::RegisterFileConfig c;
    c.num_registers = n;
    c.rows = 1;
    c.cols = n;
    c.banks = 1;
    ASSERT_TRUE(c.valid());
    const machine::Floorplan fp(c);
    const PowerModel m(c);
    for (const double special :
         {kNaN, kInf, -kInf, 0.0, 1e6, -1e6, c.tech.leakage_ref_temp_k}) {
      std::vector<double> temps(n);
      std::vector<double> dynamic(n);
      for (std::size_t r = 0; r < n; ++r) {
        temps[r] = rng.uniform(300.0, 420.0);
        dynamic[r] = rng.uniform(0.0, 0.02);
      }
      temps.front() = special;
      temps.back() = special;
      const auto leak = m.leakage_power(fp, temps);
      std::vector<double> total(n);
      m.leakage_power(fp, temps, dynamic, total);
      for (std::size_t r = 0; r < n; ++r) {
        const double want = c.tech.leakage_at(temps[r]);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(leak[r]),
                  std::bit_cast<std::uint64_t>(want))
            << n << " registers, r = " << r << ", T = " << temps[r];
        EXPECT_EQ(std::bit_cast<std::uint64_t>(total[r]),
                  std::bit_cast<std::uint64_t>(dynamic[r] + want))
            << n << " registers, r = " << r << ", T = " << temps[r];
      }
    }
  }
}

TEST(PowerModel, LeakageBitsAreRecorded) {
  // The kernel's bits, fixed on every host and -march. 341 K on default
  // and 344.25 K on dense45 are one ULP away from glibc's exp.
  const std::pair<double, std::uint64_t> kDefault[] = {
      {320.0, 0x3ee78361e8f874c9ull}, {341.0, 0x3ef3dfc259116c27ull},
      {351.7, 0x3ef9f8247adb192full}, {390.0, 0x3f10e9e4f0ff2529ull}};
  const std::pair<double, std::uint64_t> kDense45[] = {
      {320.0, 0x3ef67ebbfa2681d9ull}, {344.25, 0x3f08702f491aec35ull},
      {351.7, 0x3f0f0474609efa00ull}, {390.0, 0x3f2a69b65dbc506cull}};
  const auto& default_tech = machine::find_machine("default")->rf.tech;
  const auto& dense45_tech = machine::find_machine("dense45")->rf.tech;
  for (const auto& [t, bits] : kDefault) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(default_tech.leakage_at(t)), bits)
        << "default at " << t << " K";
  }
  for (const auto& [t, bits] : kDense45) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(dense45_tech.leakage_at(t)), bits)
        << "dense45 at " << t << " K";
  }
}

TEST(PowerModel, TraceEnergyCombinesDynamicAndLeakage) {
  const PowerModel m(cfg());
  AccessTrace t(16);
  t.record(0, 0, true);
  t.set_duration_cycles(1000);
  const double e = m.trace_energy(t, 340.0);
  const double dynamic = cfg().tech.write_energy_j;
  EXPECT_GT(e, dynamic);  // leakage adds on top
  // Gating both banks cuts the leakage share.
  const double e_gated = m.trace_energy(t, 340.0, {true, true});
  EXPECT_LT(e_gated, e);
  EXPECT_GT(e_gated, dynamic * 0.999);
}

}  // namespace
}  // namespace tadfa::power

// Appended: memory-hierarchy energy accounting.
namespace tadfa::power {
namespace {

TEST(PowerModel, MemoryEnergyCountsTraffic) {
  const PowerModel m(cfg());
  EXPECT_DOUBLE_EQ(m.memory_energy(0, 0), 0.0);
  const double one = cfg().tech.memory_access_energy_j;
  EXPECT_DOUBLE_EQ(m.memory_energy(10, 5), 15 * one);
}

TEST(PowerModel, MemoryAccessCostsMoreThanRegisterAccess) {
  // The premise of the spill/promotion energy trade: a cache access is an
  // order of magnitude more expensive than a register access.
  const auto& tech = cfg().tech;
  EXPECT_GT(tech.memory_access_energy_j, 5 * tech.read_energy_j);
}

}  // namespace
}  // namespace tadfa::power
