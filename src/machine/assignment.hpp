// Virtual-to-physical register assignment.
//
// Produced by src/regalloc, consumed by the trace simulator (to know which
// physical cell each access touches) and by the post-RA mode of the thermal
// analysis. Lives in machine/ because it is pure mapping data shared by
// both sides.
#pragma once

#include <vector>

#include "ir/function.hpp"
#include "machine/floorplan.hpp"

namespace tadfa::machine {

class RegisterAssignment {
 public:
  RegisterAssignment() = default;
  explicit RegisterAssignment(std::uint32_t num_vregs)
      : map_(num_vregs, kUnassigned) {}

  static constexpr PhysReg kUnassigned = ~PhysReg{0};

  bool assigned(ir::Reg v) const {
    return v < map_.size() && map_[v] != kUnassigned;
  }

  PhysReg phys(ir::Reg v) const {
    TADFA_ASSERT(assigned(v));
    return map_[v];
  }

  void assign(ir::Reg v, PhysReg p) {
    TADFA_ASSERT(v < map_.size());
    map_[v] = p;
  }

  std::uint32_t vreg_count() const {
    return static_cast<std::uint32_t>(map_.size());
  }

  /// True when every virtual register that appears in `func` is mapped.
  bool covers(const ir::Function& func) const;

  /// Distinct physical registers used.
  std::vector<PhysReg> used_physical() const;

  friend bool operator==(const RegisterAssignment&,
                         const RegisterAssignment&) = default;

 private:
  std::vector<PhysReg> map_;
};

}  // namespace tadfa::machine
