#include "opt/schedule.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "support/assert.hpp"

namespace tadfa::opt {
namespace {

bool is_memory(const ir::Instruction& inst) {
  return inst.opcode() == ir::Opcode::kLoad ||
         inst.opcode() == ir::Opcode::kStore;
}

bool is_store(const ir::Instruction& inst) {
  return inst.opcode() == ir::Opcode::kStore;
}

constexpr std::uint64_t kNoDef = std::numeric_limits<std::uint64_t>::max();

/// What the scheduler reads of one block's body instructions, gathered
/// once per block so that the O(n²) dependence build and every pick read
/// flat arrays instead of a fresh Instruction::uses() vector. Registers
/// are mapped to their physical cell when assigned (see thermal_schedule).
struct BodyFacts {
  // Per body instruction i: its mapped def (kNoDef if none) and its
  // memory and store flags. Its mapped uses are uses[use_first[i] ..
  // use_first[i + 1]), and its assigned cells, uses then def, are
  // cells[cell_first[i] .. cell_first[i + 1]).
  std::vector<std::uint64_t> def;
  std::vector<bool> memory;
  std::vector<bool> store;
  std::vector<std::size_t> use_first;
  std::vector<std::uint64_t> uses;
  std::vector<std::size_t> cell_first;
  std::vector<machine::PhysReg> cells;

  void gather(const std::vector<ir::Instruction>& insts, std::size_t body,
              const machine::RegisterAssignment& assignment) {
    auto mapped = [&](ir::Reg v) -> std::uint64_t {
      if (assignment.assigned(v)) {
        return (std::uint64_t{1} << 32) | assignment.phys(v);
      }
      return v;
    };
    def.assign(body, kNoDef);
    memory.assign(body, false);
    store.assign(body, false);
    use_first.assign(1, 0);
    uses.clear();
    cell_first.assign(1, 0);
    cells.clear();
    for (std::size_t i = 0; i < body; ++i) {
      const ir::Instruction& inst = insts[i];
      for (ir::Reg u : inst.uses()) {
        uses.push_back(mapped(u));
        if (assignment.assigned(u)) {
          cells.push_back(assignment.phys(u));
        }
      }
      if (auto d = inst.def()) {
        def[i] = mapped(*d);
        if (assignment.assigned(*d)) {
          cells.push_back(assignment.phys(*d));
        }
      }
      memory[i] = is_memory(inst);
      store[i] = is_store(inst);
      use_first.push_back(uses.size());
      cell_first.push_back(cells.size());
    }
  }

  /// Whether instruction i reads the mapped register `key`.
  bool reads(std::size_t i, std::uint64_t key) const {
    const auto first = uses.begin() + use_first[i];
    const auto last = uses.begin() + use_first[i + 1];
    return std::find(first, last, key) != last;
  }

  /// Whether instruction i must precede instruction j (i < j).
  bool depends(std::size_t i, std::size_t j) const {
    // RAW: j reads a cell i defines; WAW: both define it.
    if (def[i] != kNoDef && (def[i] == def[j] || reads(j, def[i]))) {
      return true;
    }
    // WAR: j defines a cell i reads.
    if (def[j] != kNoDef && reads(i, def[j])) {
      return true;
    }
    // Memory: stores order against all memory ops.
    return memory[i] && memory[j] && (store[i] || store[j]);
  }

  std::span<const machine::PhysReg> cells_of(std::size_t i) const {
    return {cells.data() + cell_first[i], cell_first[i + 1] - cell_first[i]};
  }
};

}  // namespace

ScheduleResult thermal_schedule(
    const ir::Function& func,
    const machine::RegisterAssignment& assignment) {
  ScheduleResult result;
  result.func = func;
  BodyFacts facts;

  for (ir::BasicBlock& block : result.func.blocks()) {
    const std::size_t n = block.size();
    if (n <= 2) {
      continue;
    }
    // Schedule everything except the terminator.
    const std::size_t body = block.has_terminator() ? n - 1 : n;

    // --- Dependence edges (i -> j means i must precede j) -------------------
    // Dependences are computed on PHYSICAL registers: after assignment, two
    // virtual registers sharing a cell must keep their relative order, or
    // the reorder would invalidate the allocation. (Physical deps are a
    // superset of virtual deps, so semantics are preserved too.)
    const auto& insts = block.instructions();
    facts.gather(insts, body, assignment);
    std::vector<std::vector<std::size_t>> succ(body);
    std::vector<std::size_t> pending(body, 0);
    for (std::size_t j = 0; j < body; ++j) {
      for (std::size_t i = 0; i < j; ++i) {
        if (facts.depends(i, j)) {
          succ[i].push_back(j);
          ++pending[j];
        }
      }
    }

    // --- List scheduling ------------------------------------------------------
    // last_access[p] = position (in the new order) of the most recent
    // access to physical register p; -inf if untouched.
    std::uint32_t n_phys = 1;
    for (machine::PhysReg p : facts.cells) {
      n_phys = std::max(n_phys, p + 1);
    }
    std::vector<std::ptrdiff_t> last_access(
        n_phys, std::numeric_limits<std::ptrdiff_t>::min() / 2);

    std::vector<std::size_t> order;
    order.reserve(body);
    std::vector<bool> scheduled(body, false);

    auto coolness = [&](std::size_t i) {
      // Minimum distance (in already-emitted instructions) since any of
      // instruction i's physical registers was last accessed. Larger =
      // cooler = better.
      std::ptrdiff_t min_gap = std::numeric_limits<std::ptrdiff_t>::max();
      const auto pos = static_cast<std::ptrdiff_t>(order.size());
      for (machine::PhysReg p : facts.cells_of(i)) {
        min_gap = std::min(min_gap, pos - last_access[p]);
      }
      return min_gap;
    };

    for (std::size_t step = 0; step < body; ++step) {
      std::size_t pick = body;
      std::ptrdiff_t best = std::numeric_limits<std::ptrdiff_t>::min();
      for (std::size_t i = 0; i < body; ++i) {
        if (scheduled[i] || pending[i] != 0) {
          continue;
        }
        const std::ptrdiff_t gap = coolness(i);
        if (pick == body || gap > best) {
          best = gap;
          pick = i;
        }
      }
      TADFA_ASSERT_MSG(pick != body, "scheduler found a dependence cycle");
      scheduled[pick] = true;
      order.push_back(pick);
      const auto pos = static_cast<std::ptrdiff_t>(order.size()) - 1;
      for (machine::PhysReg p : facts.cells_of(pick)) {
        last_access[p] = pos;
      }
      for (std::size_t s : succ[pick]) {
        --pending[s];
      }
    }

    // --- Emit -------------------------------------------------------------------
    std::vector<ir::Instruction> reordered;
    reordered.reserve(n);
    for (std::size_t i : order) {
      reordered.push_back(insts[i]);
    }
    if (body < n) {
      reordered.push_back(insts[n - 1]);  // terminator
    }
    for (std::size_t i = 0; i < body; ++i) {
      if (order[i] != i) {
        ++result.moved;
      }
    }
    block.instructions() = std::move(reordered);
  }

  return result;
}

}  // namespace tadfa::opt
