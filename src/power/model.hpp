// Power model: access events -> watts.
//
// Implements the "technology coefficients of logic activity and peak power"
// coupling the paper takes from [1, 5]:
//   dynamic:  P = (reads·E_read + writes·E_write) / window_time
//   leakage:  P = P_ref · exp(c·(T − T_ref)) per cell, per-bank gateable.
// The exponential leakage closes the electrothermal loop: hotter cells leak
// more, which is why homogenizing the map "improves reliability by
// decreasing leakage" (Sec. 4).
//
// exp is support/exp_kernel.hpp's kernel, not libm's: within 1 ULP, one
// fixed operation order, so every host gives the same bits. leakage_power
// runs it as one vectorized pass over the registers, with the dynamic
// power added in the same pass, and equals TechnologyParams::leakage_at
// entry for entry, bit for bit. That pass is built for AVX-512, AVX2 and
// baseline x86-64 (support/target_clones.hpp); the width cannot move a
// bit, since each lane runs the kernel's own operations in its own order
// and -ffp-contract=off keeps every product and sum rounded on its own.
#pragma once

#include <span>
#include <vector>

#include "power/access_trace.hpp"

namespace tadfa::power {

class PowerModel {
 public:
  explicit PowerModel(const machine::RegisterFileConfig& config)
      : config_(config) {}

  const machine::RegisterFileConfig& config() const { return config_; }

  /// Energy of a batch of accesses (J).
  double access_energy(const AccessCounts& counts) const;

  /// Average per-register dynamic power (W) over a cycle window.
  std::vector<double> dynamic_power(std::span<const AccessCounts> counts,
                                    std::uint64_t window_cycles) const;

  /// Per-register leakage power at given temperatures. `gated_banks[b]`
  /// true means bank b is power-gated: its cells leak only
  /// `gated_leakage_fraction` of nominal.
  std::vector<double> leakage_power(
      const machine::Floorplan& floorplan, std::span<const double> temps_k,
      const std::vector<bool>& gated_banks = {}) const;
  /// Per-register power with no bank gated: `base_w[r]` plus the leakage at
  /// `temps_k[r]`, written into `out` in one pass (the thermal DFA's
  /// per-transfer power). Each entry is bit for bit
  /// base_w[r] + leakage_power(floorplan, temps_k)[r]. `base_w` may be
  /// `out` itself.
  void leakage_power(const machine::Floorplan& floorplan,
                     std::span<const double> temps_k,
                     std::span<const double> base_w,
                     std::span<double> out) const;

  /// Residual leakage fraction of a gated bank (state-retentive sleep).
  static constexpr double gated_leakage_fraction = 0.05;

  /// Energy spent in the memory hierarchy by a run's loads + stores (J).
  /// Lets benches report whole-system energy when a transform trades RF
  /// accesses against cache accesses.
  double memory_energy(std::uint64_t loads, std::uint64_t stores) const {
    return static_cast<double>(loads + stores) *
           config_.tech.memory_access_energy_j;
  }

  /// Total energy (J) of a trace: dynamic + leakage at a fixed
  /// representative temperature (used for quick energy accounting where
  /// the full electrothermal loop is not needed).
  double trace_energy(const AccessTrace& trace, double temp_k,
                      const std::vector<bool>& gated_banks = {}) const;

  /// Digest of the configuration (energy/leakage coefficients included);
  /// all power numbers are pure functions of it.
  std::uint64_t config_digest() const;

 private:
  machine::RegisterFileConfig config_;
};

}  // namespace tadfa::power
