// Technology and register-file configuration.
//
// The paper links "technology coefficients of logic activity and peak power
// found in the thermal models [1, 5]" to high-level instruction/variable
// information. This header holds those coefficients. Values model a
// 65 nm-class multi-ported register file; absolute numbers are synthetic
// (see DESIGN.md, substitutions) but sized so that per-register power,
// thermal time constants, and temperature deltas land in the ranges the RF
// thermal literature reports (local rises of a few K to tens of K,
// millisecond-scale settling).
#pragma once

#include <cstdint>

namespace tadfa::machine {

struct TechnologyParams {
  // --- Geometry (per register cell: one architectural register's storage
  //     plus its share of decoders/ports) -----------------------------------
  double cell_width_m = 6.0e-6;
  double cell_height_m = 3.0e-6;
  double die_thickness_m = 50.0e-6;

  // --- Energy ---------------------------------------------------------------
  /// Energy of one read access (J). Multi-ported RF read at 65 nm: ~1 pJ.
  double read_energy_j = 1.2e-12;
  /// Energy of one write access (J).
  double write_energy_j = 1.8e-12;

  /// Energy of one L1/data-memory access (J) — for whole-system energy
  /// accounting when optimizations move traffic between the RF and the
  /// cache (register promotion, spilling). ~15 pJ for a small L1 at 65 nm.
  double memory_access_energy_j = 15.0e-12;

  // --- Leakage ---------------------------------------------------------------
  /// Per-cell leakage power at reference temperature (W).
  double leakage_ref_w = 2.0e-5;
  /// Exponential temperature coefficient (1/K):
  /// P_leak(T) = leakage_ref_w * exp(coeff * (T - T_ref)).
  double leakage_temp_coeff = 0.025;
  double leakage_ref_temp_k = 343.15;  // 70 °C

  // --- Thermal (silicon + lumped package) ------------------------------------
  /// Silicon thermal conductivity, W/(m·K).
  double silicon_conductivity = 100.0;
  /// Silicon volumetric heat capacity, J/(m^3·K).
  double silicon_volumetric_heat = 1.75e6;
  /// Extra scale on vertical (cell -> substrate) resistance; models how
  /// well the RF's neighborhood evacuates heat (blockage by wiring layers,
  /// neighboring hot units). Calibrated so sustained per-register activity
  /// produces the K-scale local rises the RF thermal literature reports.
  double vertical_resistance_scale = 4.0;
  /// Temperature of the substrate/die around the RF (K). The RF rides on
  /// top of this baseline; its own activity adds the local delta.
  double substrate_temp_k = 343.15;  // 70 °C
  /// Ambient used when reporting absolute temperatures (K).
  double ambient_temp_k = 318.15;  // 45 °C

  // --- Clocking ---------------------------------------------------------------
  double clock_hz = 3.0e9;

  double cycle_seconds() const { return 1.0 / clock_hz; }
  double cell_area_m2() const { return cell_width_m * cell_height_m; }

  /// Leakage power of one cell at temperature `t_k`. exp is the libm-free
  /// kernel in support/exp_kernel.hpp (within 1 ULP, the same bits on
  /// every host); PowerModel::leakage_power matches this bit for bit.
  double leakage_at(double t_k) const;

  /// Order-sensitive hash of every coefficient. Any parameter change
  /// (and only a parameter change) produces a new digest — the
  /// invalidation unit of the persistent result cache.
  std::uint64_t config_digest() const;
};

/// Register-file shape: how many architectural registers and how they are
/// arranged on the die.
struct RegisterFileConfig {
  std::uint32_t num_registers = 64;
  std::uint32_t rows = 8;
  std::uint32_t cols = 8;
  /// Banks split the columns into contiguous groups that can be
  /// power-gated independently (Sec. 4's bank switch-off discussion).
  std::uint32_t banks = 4;
  TechnologyParams tech;

  /// 64-register 8x8 file, 4 banks — the default experimental target.
  static RegisterFileConfig default_config() { return {}; }
  /// Small 16-register 4x4 file for unit tests.
  static RegisterFileConfig small_config();
  /// Large 128-register 16x8 file for scaling studies.
  static RegisterFileConfig large_config();

  /// Checks rows*cols == num_registers, banks divides cols, etc.
  bool valid() const;

  /// Hash of the shape plus the technology digest.
  std::uint64_t config_digest() const;
};

}  // namespace tadfa::machine
