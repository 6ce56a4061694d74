#include "machine/technology.hpp"

#include "support/exp_kernel.hpp"
#include "support/serialize.hpp"

namespace tadfa::machine {

double TechnologyParams::leakage_at(double t_k) const {
  return leakage_ref_w *
         exp_kernel(leakage_temp_coeff * (t_k - leakage_ref_temp_k));
}

RegisterFileConfig RegisterFileConfig::small_config() {
  RegisterFileConfig c;
  c.num_registers = 16;
  c.rows = 4;
  c.cols = 4;
  c.banks = 2;
  return c;
}

RegisterFileConfig RegisterFileConfig::large_config() {
  RegisterFileConfig c;
  c.num_registers = 128;
  c.rows = 8;
  c.cols = 16;
  c.banks = 4;
  return c;
}

bool RegisterFileConfig::valid() const {
  if (num_registers == 0 || rows == 0 || cols == 0 || banks == 0) {
    return false;
  }
  if (rows * cols != num_registers) {
    return false;
  }
  if (cols % banks != 0) {
    return false;
  }
  if (tech.clock_hz <= 0 || tech.cell_width_m <= 0 || tech.cell_height_m <= 0) {
    return false;
  }
  return true;
}

std::uint64_t TechnologyParams::config_digest() const {
  return Hasher()
      .mix(cell_width_m)
      .mix(cell_height_m)
      .mix(die_thickness_m)
      .mix(read_energy_j)
      .mix(write_energy_j)
      .mix(memory_access_energy_j)
      .mix(leakage_ref_w)
      .mix(leakage_temp_coeff)
      .mix(leakage_ref_temp_k)
      .mix(silicon_conductivity)
      .mix(silicon_volumetric_heat)
      .mix(vertical_resistance_scale)
      .mix(substrate_temp_k)
      .mix(ambient_temp_k)
      .mix(clock_hz)
      .digest();
}

std::uint64_t RegisterFileConfig::config_digest() const {
  return Hasher()
      .mix(std::uint64_t{num_registers})
      .mix(std::uint64_t{rows})
      .mix(std::uint64_t{cols})
      .mix(std::uint64_t{banks})
      .mix(tech.config_digest())
      .digest();
}

}  // namespace tadfa::machine
