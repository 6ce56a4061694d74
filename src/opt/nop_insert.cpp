#include "opt/nop_insert.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace tadfa::opt {

NopInsertResult insert_cooling_nops(const ir::Function& func,
                                    const core::ThermalDfaResult& dfa,
                                    double threshold_k, int nops_per_site) {
  TADFA_ASSERT(nops_per_site >= 1);
  NopInsertResult result;
  result.func = func;

  // Collect hot sites from the analysis, then insert back-to-front within
  // each block so earlier indices stay valid.
  std::vector<ir::InstrRef> sites;
  for (const core::InstructionThermal& it : dfa.per_instruction) {
    if (it.peak_k > threshold_k) {
      sites.push_back(it.ref);
    }
  }
  std::sort(sites.begin(), sites.end(),
            [](const ir::InstrRef& a, const ir::InstrRef& b) {
              if (a.block != b.block) {
                return a.block < b.block;
              }
              return a.index > b.index;  // descending within a block
            });

  for (const ir::InstrRef& ref : sites) {
    auto& insts = result.func.block(ref.block).instructions();
    if (ref.index >= insts.size() || insts[ref.index].is_terminator()) {
      continue;
    }
    insts.insert(insts.begin() + static_cast<std::ptrdiff_t>(ref.index) + 1,
                 static_cast<std::size_t>(nops_per_site),
                 ir::Instruction(ir::Opcode::kNop, ir::kInvalidReg, {}));
    result.nops_inserted += static_cast<std::size_t>(nops_per_site);
  }
  return result;
}

double default_cooling_threshold(const core::ThermalDfaResult& dfa) {
  return 0.5 * (dfa.exit_stats.mean_k + dfa.peak_anywhere_k);
}

}  // namespace tadfa::opt
