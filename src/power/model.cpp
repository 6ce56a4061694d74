#include "power/model.hpp"

#include "support/assert.hpp"
#include "support/exp_kernel.hpp"
#include "support/serialize.hpp"
#include "support/target_clones.hpp"

namespace tadfa::power {

double PowerModel::access_energy(const AccessCounts& counts) const {
  const auto& t = config_.tech;
  return static_cast<double>(counts.reads) * t.read_energy_j +
         static_cast<double>(counts.writes) * t.write_energy_j;
}

std::vector<double> PowerModel::dynamic_power(
    std::span<const AccessCounts> counts, std::uint64_t window_cycles) const {
  TADFA_ASSERT(window_cycles > 0);
  const double window_s =
      static_cast<double>(window_cycles) * config_.tech.cycle_seconds();
  std::vector<double> out(counts.size(), 0.0);
  for (std::size_t r = 0; r < counts.size(); ++r) {
    out[r] = access_energy(counts[r]) / window_s;
  }
  return out;
}

std::vector<double> PowerModel::leakage_power(
    const machine::Floorplan& floorplan, std::span<const double> temps_k,
    const std::vector<bool>& gated_banks) const {
  // −0 is the additive identity: −0 + x is x for every x, ±0 and NaN
  // included, so this is the leakage alone, bit for bit.
  std::vector<double> out(temps_k.size(), -0.0);
  leakage_power(floorplan, temps_k, out, out);
  if (gated_banks.empty()) {
    return out;
  }
  for (machine::PhysReg r = 0; r < out.size(); ++r) {
    const std::uint32_t bank = floorplan.bank_of(r);
    if (bank < gated_banks.size() && gated_banks[bank]) {
      out[r] *= gated_leakage_fraction;
    }
  }
  return out;
}

TADFA_TARGET_CLONES
void PowerModel::leakage_power(const machine::Floorplan& floorplan,
                               std::span<const double> temps_k,
                               std::span<const double> base_w,
                               std::span<double> out) const {
  TADFA_ASSERT(temps_k.size() == floorplan.num_registers());
  TADFA_ASSERT(base_w.size() == temps_k.size());
  TADFA_ASSERT(out.size() == temps_k.size());
  // TechnologyParams::leakage_at's expression, operation for operation,
  // so each entry's leakage equals leakage_at(temps_k[r]) bit for bit.
  const machine::TechnologyParams& tech = config_.tech;
  const double ref_w = tech.leakage_ref_w;
  const double coeff = tech.leakage_temp_coeff;
  const double ref_k = tech.leakage_ref_temp_k;
  const double* t = temps_k.data();
  const double* b = base_w.data();
  double* p = out.data();
  const std::size_t n = temps_k.size();
#pragma omp simd
  for (std::size_t r = 0; r < n; ++r) {
    p[r] = b[r] + ref_w * exp_kernel(coeff * (t[r] - ref_k));
  }
}

double PowerModel::trace_energy(const AccessTrace& trace, double temp_k,
                                const std::vector<bool>& gated_banks) const {
  const auto totals = trace.totals();
  double dynamic = 0.0;
  for (const AccessCounts& c : totals) {
    dynamic += access_energy(c);
  }

  const double duration_s =
      static_cast<double>(trace.duration_cycles()) *
      config_.tech.cycle_seconds();
  const double leak_per_cell = config_.tech.leakage_at(temp_k);
  double leakage = 0.0;
  const machine::Floorplan floorplan(config_);
  for (machine::PhysReg r = 0; r < trace.num_registers(); ++r) {
    double p = leak_per_cell;
    const std::uint32_t bank = floorplan.bank_of(r);
    if (bank < gated_banks.size() && gated_banks[bank]) {
      p *= gated_leakage_fraction;
    }
    leakage += p * duration_s;
  }
  return dynamic + leakage;
}

std::uint64_t PowerModel::config_digest() const {
  // Distinguish the power model's view of a config from the floorplan's:
  // equal configs still hash differently per consumer, so a key mixes
  // both without the two digests cancelling structure. The marker names
  // the leakage exp kernel: its low bits are not glibc's, so keys minted
  // with std::exp never match.
  return Hasher(0x704f574552ull /* "pPOWER" */)
      .mix(config_.config_digest())
      .mix(std::string_view{"leakage exp kernel"})
      .digest();
}

}  // namespace tadfa::power
