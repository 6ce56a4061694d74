// Tests for src/opt — every Sec. 4 transformation must (a) preserve
// semantics (interpreter result unchanged) and (b) have its intended
// structural effect.
#include <gtest/gtest.h>

#include <map>
#include <string_view>

#include "core/critical.hpp"
#include "frontend/frontend.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "machine/machine_config.hpp"
#include "opt/bank_gating.hpp"
#include "opt/nop_insert.hpp"
#include "opt/promote.hpp"
#include "opt/reassign.hpp"
#include "opt/schedule.hpp"
#include "opt/spill_critical.hpp"
#include "opt/split.hpp"
#include "regalloc/linear_scan.hpp"
#include "regalloc/verify.hpp"
#include "sim/interpreter.hpp"
#include "support/serialize.hpp"
#include "workload/kernels.hpp"

namespace tadfa::opt {
namespace {

struct Rig {
  machine::Floorplan fp{machine::RegisterFileConfig::default_config()};
  thermal::ThermalGrid grid{fp};
  power::PowerModel power{fp.config()};
  machine::TimingModel timing;
};

std::int64_t run(const workload::Kernel& k, const ir::Function& func) {
  machine::TimingModel timing;
  sim::Interpreter interp(func, timing);
  if (k.init_memory) {
    k.init_memory(interp.memory());
  }
  const auto r = interp.run(k.default_args);
  EXPECT_TRUE(r.ok()) << (r.trap ? *r.trap : "");
  EXPECT_TRUE(r.return_value.has_value());
  return r.return_value.value_or(-1);
}

regalloc::AllocationResult allocate(const Rig& s, const ir::Function& f) {
  regalloc::FirstFreePolicy policy;
  regalloc::LinearScanAllocator alloc(s.fp, policy);
  return alloc.allocate(f);
}

core::ThermalDfaResult analyze(const Rig& s,
                               const regalloc::AllocationResult& alloc) {
  const core::ThermalDfa dfa(s.grid, s.power, s.timing);
  return dfa.analyze_post_ra(alloc.func, alloc.assignment);
}

// ------------------------------------------------------------------ split ----

TEST(Split, PreservesSemanticsOnKernels) {
  for (const char* name : {"vecsum", "fir", "crc32", "poly7"}) {
    auto k = workload::make_kernel(name);
    ASSERT_TRUE(k.has_value());
    const std::int64_t before = run(*k, k->func);

    ir::Function func = k->func;
    // Split every parameter and the first few registers.
    std::vector<ir::Reg> targets(k->func.params());
    for (ir::Reg r = 0; r < std::min(4u, k->func.reg_count()); ++r) {
      targets.push_back(r);
    }
    split_live_ranges(func, targets);
    EXPECT_TRUE(ir::is_well_formed(func)) << name;
    EXPECT_EQ(run(*k, func), before) << name;
  }
}

TEST(Split, InsertsCopiesInUsingBlocks) {
  auto k = workload::make_vecsum(16);
  ir::Function func = k.func;
  const ir::Reg base = func.params()[0];  // used in the loop body
  const SplitResult r = split_live_range(func, base);
  EXPECT_FALSE(r.copies.empty());
  EXPECT_GT(r.rewritten_uses, 0u);
  // The body block now starts with a mov.
  bool found_mov = false;
  for (const auto& block : func.blocks()) {
    if (!block.empty() && block.instructions()[0].opcode() == ir::Opcode::kMov) {
      found_mov = true;
    }
  }
  EXPECT_TRUE(found_mov);
}

TEST(Split, SplitCopiesCanColorDifferently) {
  // After splitting, the copies are distinct vregs, so assignment can
  // spread them — the point of the optimization.
  Rig s;
  auto k = workload::make_crc32(16);
  ir::Function func = k.func;
  const core::ThermalDfaResult before_dfa = analyze(s, allocate(s, func));
  split_live_ranges(func, {0, 1, 2});
  const auto alloc = allocate(s, func);
  EXPECT_TRUE(regalloc::allocation_is_legal(alloc.func, alloc.assignment));
  EXPECT_EQ(run(k, alloc.func), *k.expected_result);
  (void)before_dfa;
}

TEST(Split, NoUseNoCopy) {
  auto k = workload::make_counter(8);
  ir::Function func = k.func;
  const ir::Reg unused = func.new_reg();
  const SplitResult r = split_live_range(func, unused);
  EXPECT_TRUE(r.copies.empty());
}

// ------------------------------------------------------------------ spill ----

TEST(SpillCritical, PreservesSemantics) {
  Rig s;
  for (const char* name : {"crc32", "fir", "accumulators"}) {
    auto k = workload::make_kernel(name);
    ASSERT_TRUE(k.has_value());
    const std::int64_t expected = *k->expected_result;

    const auto alloc0 = allocate(s, k->func);
    const auto dfa = analyze(s, alloc0);
    const core::ExactAssignmentModel model(alloc0.func, s.fp,
                                           alloc0.assignment);
    const auto ranking = core::rank_critical_variables(
        alloc0.func, model, dfa, s.grid, s.timing);
    ASSERT_FALSE(ranking.empty());

    const SpillCriticalResult spilled =
        spill_critical_variables(alloc0.func, ranking, 2);
    EXPECT_TRUE(ir::is_well_formed(spilled.func)) << name;
    EXPECT_EQ(spilled.spilled.size(), 2u);
    EXPECT_GT(spilled.inserted_instructions, 0u);
    EXPECT_EQ(run(*k, spilled.func), expected) << name;
  }
}

TEST(SpillCritical, RemovesPressureFromRegisters) {
  Rig s;
  auto k = workload::make_crc32(16);
  const auto alloc0 = allocate(s, k.func);
  const auto dfa = analyze(s, alloc0);
  const core::ExactAssignmentModel model(alloc0.func, s.fp,
                                         alloc0.assignment);
  const auto ranking = core::rank_critical_variables(alloc0.func, model, dfa,
                                                     s.grid, s.timing);
  const auto spilled = spill_critical_variables(alloc0.func, ranking, 1);
  // The spilled vreg no longer appears as an operand anywhere.
  const ir::Reg victim = spilled.spilled[0];
  for (const auto& block : spilled.func.blocks()) {
    for (const auto& inst : block.instructions()) {
      for (ir::Reg u : inst.uses()) {
        EXPECT_NE(u, victim);
      }
      if (auto d = inst.def()) {
        EXPECT_NE(*d, victim);
      }
    }
  }
}

// --------------------------------------------------------------- schedule ----

TEST(Schedule, PreservesSemanticsOnKernels) {
  Rig s;
  for (const char* name : {"vecsum", "fir", "idct8", "poly7", "stencil3"}) {
    auto k = workload::make_kernel(name);
    ASSERT_TRUE(k.has_value());
    const auto alloc = allocate(s, k->func);
    const std::int64_t expected = *k->expected_result;
    EXPECT_EQ(run(*k, alloc.func), expected) << name << " (pre)";

    const ScheduleResult sched = thermal_schedule(alloc.func, alloc.assignment);
    EXPECT_TRUE(ir::is_well_formed(sched.func)) << name;
    EXPECT_EQ(run(*k, sched.func), expected) << name << " (post)";
  }
}

TEST(Schedule, KeepsAllocationLegal) {
  Rig s;
  auto k = workload::make_idct8(8);
  const auto alloc = allocate(s, k.func);
  const ScheduleResult sched = thermal_schedule(alloc.func, alloc.assignment);
  EXPECT_TRUE(regalloc::allocation_is_legal(sched.func, alloc.assignment));
}

TEST(Schedule, ActuallyReordersWideBlocks) {
  Rig s;
  auto k = workload::make_idct8(8);  // wide independent butterfly
  const auto alloc = allocate(s, k.func);
  const ScheduleResult sched = thermal_schedule(alloc.func, alloc.assignment);
  EXPECT_GT(sched.moved, 0u);
}

TEST(Schedule, IncreasesMinimumAccessDistance) {
  // The scheduling objective: consecutive accesses to the same physical
  // register get farther apart (crc32's serial chain is the stress case;
  // use idct8 where independence exists).
  Rig s;
  auto k = workload::make_idct8(4);
  const auto alloc = allocate(s, k.func);

  auto min_same_reg_gap = [&](const ir::Function& f) {
    std::size_t min_gap = 1000000;
    for (const auto& block : f.blocks()) {
      std::map<machine::PhysReg, std::size_t> last;
      for (std::size_t i = 0; i < block.size(); ++i) {
        const auto& inst = block.instructions()[i];
        auto touch = [&](ir::Reg v) {
          if (!alloc.assignment.assigned(v)) {
            return;
          }
          const auto p = alloc.assignment.phys(v);
          const auto it = last.find(p);
          if (it != last.end()) {
            min_gap = std::min(min_gap, i - it->second);
          }
          last[p] = i;
        };
        for (ir::Reg u : inst.uses()) {
          touch(u);
        }
        if (auto d = inst.def()) {
          touch(*d);
        }
      }
    }
    return min_gap;
  };

  const ScheduleResult sched = thermal_schedule(alloc.func, alloc.assignment);
  EXPECT_GE(min_same_reg_gap(sched.func), min_same_reg_gap(alloc.func));
}

TEST(Schedule, KeepsRecordedOrderOnMixedModule) {
  // Digest of the printed IR of every function the scheduler returns for
  // the `alloc=linear:first_free` output of mixed:functions=8,seed=7 on
  // `default`, recorded from the pass that called Instruction::uses()
  // per instruction pair. Not one pick may move.
  auto parsed =
      frontend::find_frontend("kernels")->parse("mixed:functions=8,seed=7");
  ASSERT_TRUE(parsed.ok()) << parsed.diagnostics_text();
  const machine::MachineConfig* mc = machine::find_machine("default");
  ASSERT_NE(mc, nullptr);
  const machine::Floorplan fp(mc->rf);
  regalloc::FirstFreePolicy policy;
  regalloc::LinearScanAllocator allocator(fp, policy);
  Hasher h;
  std::size_t moved = 0;
  for (const ir::Function& f : parsed.module->functions()) {
    const auto alloc = allocator.allocate(f);
    const ScheduleResult sched = thermal_schedule(alloc.func, alloc.assignment);
    h.mix(std::string_view{ir::to_string(sched.func)});
    moved += sched.moved;
  }
  EXPECT_GT(moved, 0u);
  EXPECT_EQ(h.digest(), 0xfaf46fb27fa9cb63ull);
}

// ---------------------------------------------------------------- promote ----

TEST(Promote, HoistsRepeatedConstantLoads) {
  const std::string text =
      "func @p() {\n"
      "entry:\n"
      "  %0 = load 50\n"
      "  %1 = load 50\n"
      "  %2 = add %0, %1\n"
      "  ret %2\n"
      "}\n";
  const auto f = ir::parse_function(text);
  ASSERT_TRUE(f.has_value());
  const PromoteResult r = promote_memory_scalars(*f);
  EXPECT_EQ(r.promoted_addresses, (std::vector<std::int64_t>{50}));
  EXPECT_EQ(r.loads_replaced, 2u);
  EXPECT_TRUE(ir::is_well_formed(r.func));
  // Exactly one load remains (the hoisted home load).
  std::size_t loads = 0;
  for (const auto& block : r.func.blocks()) {
    for (const auto& inst : block.instructions()) {
      loads += inst.opcode() == ir::Opcode::kLoad;
    }
  }
  EXPECT_EQ(loads, 1u);
}

TEST(Promote, StoredAddressNotPromoted) {
  const std::string text =
      "func @s() {\n"
      "entry:\n"
      "  store 50, 7\n"
      "  %0 = load 50\n"
      "  %1 = load 50\n"
      "  %2 = add %0, %1\n"
      "  ret %2\n"
      "}\n";
  const auto f = ir::parse_function(text);
  const PromoteResult r = promote_memory_scalars(*f);
  EXPECT_TRUE(r.promoted_addresses.empty());
}

TEST(Promote, UnknownStoreBlocksEverything) {
  const std::string text =
      "func @u(%0) {\n"
      "entry:\n"
      "  store %0, 7\n"
      "  %1 = load 50\n"
      "  %2 = load 50\n"
      "  %3 = add %1, %2\n"
      "  ret %3\n"
      "}\n";
  const auto f = ir::parse_function(text);
  const PromoteResult r = promote_memory_scalars(*f);
  EXPECT_TRUE(r.promoted_addresses.empty());
  EXPECT_EQ(r.loads_replaced, 0u);
}

TEST(Promote, SemanticsPreserved) {
  const std::string text =
      "func @sem() {\n"
      "entry:\n"
      "  %0 = load 10\n"
      "  jmp loop\n"
      "loop:\n"
      "  %1 = load 10\n"
      "  %2 = add %0, %1\n"
      "  %3 = cmplt %2, 100\n"
      "  br %3, loop2, exit\n"
      "loop2:\n"
      "  %0 = add %0, %1\n"
      "  jmp loop\n"
      "exit:\n"
      "  ret %2\n"
      "}\n";
  auto f = ir::parse_function(text);
  ASSERT_TRUE(f.has_value());
  machine::TimingModel timing;
  sim::Interpreter i1(*f, timing);
  i1.memory()[10] = 5;
  const auto r1 = i1.run({});
  ASSERT_TRUE(r1.ok());

  const PromoteResult pr = promote_memory_scalars(*f);
  EXPECT_EQ(pr.loads_replaced, 2u);
  sim::Interpreter i2(pr.func, timing);
  i2.memory()[10] = 5;
  const auto r2 = i2.run({});
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r1.return_value, *r2.return_value);
}

TEST(Promote, MinLoadsThresholdRespected) {
  const std::string text =
      "func @t() {\n"
      "entry:\n"
      "  %0 = load 50\n"
      "  ret %0\n"
      "}\n";
  const auto f = ir::parse_function(text);
  const PromoteResult r = promote_memory_scalars(*f, 2);
  EXPECT_TRUE(r.promoted_addresses.empty());
  const PromoteResult r1 = promote_memory_scalars(*f, 1);
  EXPECT_EQ(r1.promoted_addresses.size(), 1u);
}

// --------------------------------------------------------------- nop insert ----

TEST(NopInsert, AddsNopsAfterHotInstructions) {
  Rig s;
  auto k = workload::make_crc32(16);
  const auto alloc = allocate(s, k.func);
  const auto dfa = analyze(s, alloc);

  // Threshold below the peak: at least one site fires.
  const double threshold = dfa.exit_stats.mean_k;
  const NopInsertResult r =
      insert_cooling_nops(alloc.func, dfa, threshold, 2);
  EXPECT_GT(r.nops_inserted, 0u);
  EXPECT_EQ(r.nops_inserted % 2, 0u);
  EXPECT_TRUE(ir::is_well_formed(r.func));
  EXPECT_EQ(run(k, r.func), *k.expected_result);
}

TEST(NopInsert, HighThresholdInsertsNothing) {
  Rig s;
  auto k = workload::make_vecsum(16);
  const auto alloc = allocate(s, k.func);
  const auto dfa = analyze(s, alloc);
  const NopInsertResult r =
      insert_cooling_nops(alloc.func, dfa, dfa.peak_anywhere_k + 100, 4);
  EXPECT_EQ(r.nops_inserted, 0u);
  EXPECT_EQ(r.func.instruction_count(), alloc.func.instruction_count());
}

TEST(NopInsert, SlowsExecution) {
  Rig s;
  auto k = workload::make_crc32(16);
  const auto alloc = allocate(s, k.func);
  const auto dfa = analyze(s, alloc);
  const NopInsertResult r =
      insert_cooling_nops(alloc.func, dfa, dfa.exit_stats.mean_k, 4);

  machine::TimingModel timing;
  sim::Interpreter i1(alloc.func, timing);
  if (k.init_memory) k.init_memory(i1.memory());
  sim::Interpreter i2(r.func, timing);
  if (k.init_memory) k.init_memory(i2.memory());
  const auto c1 = i1.run(k.default_args);
  const auto c2 = i2.run(k.default_args);
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  EXPECT_GT(c2.cycles, c1.cycles);  // the performance cost Sec. 4 warns of
}

// --------------------------------------------------------------- reassign ----

TEST(Reassign, ReducesPredictedPeak) {
  Rig s;
  const core::ThermalDfa dfa(s.grid, s.power, s.timing);
  auto k = workload::make_crc32(32);
  const auto initial = allocate(s, k.func);

  const ReassignResult r = thermally_reassign(k.func, initial, dfa);
  EXPECT_TRUE(
      regalloc::allocation_is_legal(r.alloc.func, r.alloc.assignment));
  EXPECT_LE(r.predicted_after.peak_k, r.predicted_before.peak_k + 1e-9);
  EXPECT_EQ(run(k, r.alloc.func), *k.expected_result);
}

TEST(Reassign, SpreadsUsage) {
  Rig s;
  const core::ThermalDfa dfa(s.grid, s.power, s.timing);
  auto k = workload::make_fir();
  const auto initial = allocate(s, k.func);
  const ReassignResult r = thermally_reassign(k.func, initial, dfa);
  // Thermal reassignment should not use fewer distinct registers than
  // first-free did.
  EXPECT_GE(r.alloc.assignment.used_physical().size(),
            initial.assignment.used_physical().size());
}

// -------------------------------------------------------------- bank gating ----

TEST(BankGating, GatesUnusedBanks) {
  Rig s;
  auto k = workload::make_vecsum(16);  // low pressure, first-free: bank 0/1
  const auto alloc = allocate(s, k.func);
  const BankGatingPlan plan =
      plan_bank_gating(s.fp, alloc.assignment, 343.15);
  EXPECT_GT(plan.gated_banks, 0u);
  EXPECT_GT(plan.leakage_saved_w, 0.0);
  // No used register may sit in a gated bank.
  for (machine::PhysReg p : alloc.assignment.used_physical()) {
    EXPECT_FALSE(plan.gated[s.fp.bank_of(p)]);
  }
}

TEST(BankGating, SpreadAssignmentGatesNothing) {
  Rig s;
  regalloc::FarthestSpreadPolicy policy;
  regalloc::LinearScanAllocator alloc(s.fp, policy);
  auto k = workload::make_fir();  // enough values to hit every bank
  const auto r = alloc.allocate(k.func);
  const BankGatingPlan plan = plan_bank_gating(s.fp, r.assignment, 343.15);
  // Spreading uses all banks: the Sec. 4 tension in one assertion.
  EXPECT_EQ(plan.gated_banks, 0u);
}

TEST(BankGating, LimitPolicyConfinesAssignment) {
  Rig s;
  regalloc::FirstFreePolicy inner;
  BankLimitPolicy limited(inner, 2);  // use only banks 0-1
  regalloc::LinearScanAllocator alloc(s.fp, limited);
  auto k = workload::make_fir();
  const auto r = alloc.allocate(k.func);
  EXPECT_TRUE(regalloc::allocation_is_legal(r.func, r.assignment));
  for (machine::PhysReg p : r.assignment.used_physical()) {
    EXPECT_LT(s.fp.bank_of(p), 2u);
  }
  const BankGatingPlan plan = plan_bank_gating(s.fp, r.assignment, 343.15);
  EXPECT_EQ(plan.gated_banks, 2u);
}

TEST(BankGating, NameReflectsLimit) {
  regalloc::FirstFreePolicy inner;
  BankLimitPolicy limited(inner, 3);
  EXPECT_EQ(limited.name(), "first_free+banks3");
}

}  // namespace
}  // namespace tadfa::opt

// NOTE: appended suites for dce/coalesce (see includes at top of file).
#include "opt/coalesce.hpp"
#include "opt/dce.hpp"

namespace tadfa::opt {
namespace {

// -------------------------------------------------------------------- dce ----

TEST(Dce, RemovesDeadArithmetic) {
  const auto f = ir::parse_function(
      "func @d() {\n"
      "entry:\n"
      "  %0 = const 1\n"
      "  %1 = const 2\n"
      "  %2 = add %0, %1\n"
      "  ret %0\n"
      "}\n");
  ASSERT_TRUE(f.has_value());
  const DceResult r = eliminate_dead_code(*f);
  // %2 is dead; then %1 (only used by the dead add) dies too.
  EXPECT_EQ(r.removed, 2u);
  EXPECT_EQ(r.func.instruction_count(), 2u);
  EXPECT_TRUE(ir::is_well_formed(r.func));
}

TEST(Dce, KeepsSideEffects) {
  const auto f = ir::parse_function(
      "func @s() {\n"
      "entry:\n"
      "  %0 = const 7\n"
      "  store 100, %0\n"
      "  %1 = load 100\n"
      "  nop\n"
      "  ret\n"
      "}\n");
  ASSERT_TRUE(f.has_value());
  const DceResult r = eliminate_dead_code(*f);
  // The load's result is dead but loads are kept (may trap); store, nop,
  // ret always kept; %0 feeds the store.
  EXPECT_EQ(r.removed, 0u);
}

TEST(Dce, KeepsLoopCarriedValues) {
  auto k = workload::make_counter(8);
  const DceResult r = eliminate_dead_code(k.func);
  EXPECT_EQ(r.removed, 0u);
  EXPECT_EQ(run(k, r.func), *k.expected_result);
}

TEST(Dce, SemanticsPreservedOnKernels) {
  for (const char* name : {"fir", "poly7", "idct8"}) {
    auto k = workload::make_kernel(name);
    const DceResult r = eliminate_dead_code(k->func);
    EXPECT_EQ(run(*k, r.func), *k->expected_result) << name;
  }
}

TEST(Dce, CleansAfterSplitAndCoalesce) {
  auto k = workload::make_crc32(8);
  ir::Function f = k.func;
  split_live_ranges(f, {2, 3});
  const auto coalesced = coalesce_copies(f);
  const auto cleaned = eliminate_dead_code(coalesced.func);
  EXPECT_TRUE(ir::is_well_formed(cleaned.func));
  EXPECT_EQ(run(k, cleaned.func), *k.expected_result);
}

// --------------------------------------------------------------- coalesce ----

TEST(Coalesce, MergesNonInterferingCopy) {
  const auto f = ir::parse_function(
      "func @c(%0) {\n"
      "entry:\n"
      "  %1 = mov %0\n"
      "  %2 = add %1, 1\n"
      "  ret %2\n"
      "}\n");
  ASSERT_TRUE(f.has_value());
  const CoalesceResult r = coalesce_copies(*f);
  EXPECT_EQ(r.coalesced, 1u);
  // The mov is gone; the add reads the parameter directly.
  EXPECT_EQ(r.func.instruction_count(), 2u);
  EXPECT_TRUE(ir::is_well_formed(r.func));
}

TEST(Coalesce, KeepsInterferingCopy) {
  // %1 = mov %0 but %0 is redefined while %1 lives -> they interfere.
  const auto f = ir::parse_function(
      "func @i(%0) {\n"
      "entry:\n"
      "  %1 = mov %0\n"
      "  %0 = add %0, 1\n"
      "  %2 = add %1, %0\n"
      "  ret %2\n"
      "}\n");
  ASSERT_TRUE(f.has_value());
  const CoalesceResult r = coalesce_copies(*f);
  EXPECT_EQ(r.coalesced, 0u);
  EXPECT_EQ(r.func.instruction_count(), 4u);
}

TEST(Coalesce, UndoesSplitting) {
  auto k = workload::make_crc32(8);
  ir::Function f = k.func;
  const SplitResult split = split_live_ranges(f, {2, 3, 4});
  ASSERT_FALSE(split.copies.empty());
  const CoalesceResult r = coalesce_copies(f);
  EXPECT_GE(r.coalesced, split.copies.size());
  EXPECT_EQ(run(k, r.func), *k.expected_result);
}

TEST(Coalesce, SemanticsPreservedOnKernels) {
  for (const char* name : {"vecsum", "stencil3", "matmul"}) {
    auto k = workload::make_kernel(name);
    const CoalesceResult r = coalesce_copies(k->func);
    EXPECT_TRUE(ir::is_well_formed(r.func)) << name;
    EXPECT_EQ(run(*k, r.func), *k->expected_result) << name;
  }
}

TEST(Coalesce, NaiveCoolestPolicyExists) {
  regalloc::CoolestFirstPolicy with_penalty(true);
  regalloc::CoolestFirstPolicy naive(false);
  EXPECT_EQ(with_penalty.name(), "coolest_first");
  EXPECT_EQ(naive.name(), "coolest_first_naive");
}

}  // namespace
}  // namespace tadfa::opt

// Appended: local CSE.
#include "opt/cse.hpp"

namespace tadfa::opt {
namespace {

TEST(Cse, ReplacesRepeatedComputation) {
  const auto f = ir::parse_function(
      "func @c(%0, %1) {\n"
      "entry:\n"
      "  %2 = add %0, %1\n"
      "  %3 = add %0, %1\n"
      "  %4 = mul %2, %3\n"
      "  ret %4\n"
      "}\n");
  ASSERT_TRUE(f.has_value());
  const CseResult r = eliminate_common_subexpressions(*f);
  EXPECT_EQ(r.replaced, 1u);
  EXPECT_EQ(r.func.block(0).instructions()[1].opcode(), ir::Opcode::kMov);
  EXPECT_TRUE(ir::is_well_formed(r.func));
}

TEST(Cse, RedefinitionKillsExpression) {
  const auto f = ir::parse_function(
      "func @k(%0, %1) {\n"
      "entry:\n"
      "  %2 = add %0, %1\n"
      "  %0 = const 9\n"
      "  %3 = add %0, %1\n"
      "  %4 = mul %2, %3\n"
      "  ret %4\n"
      "}\n");
  const CseResult r = eliminate_common_subexpressions(*f);
  EXPECT_EQ(r.replaced, 0u);
}

TEST(Cse, StoreKillsLoadsOnly) {
  const auto f = ir::parse_function(
      "func @s(%0) {\n"
      "entry:\n"
      "  %1 = load 40\n"
      "  %2 = add %0, 1\n"
      "  store 50, %0\n"
      "  %3 = load 40\n"
      "  %4 = add %0, 1\n"
      "  %5 = add %1, %3\n"
      "  %6 = add %5, %2\n"
      "  %7 = add %6, %4\n"
      "  ret %7\n"
      "}\n");
  const CseResult r = eliminate_common_subexpressions(*f);
  // The second load must survive (store may alias); the second add folds.
  EXPECT_EQ(r.replaced, 1u);
  EXPECT_EQ(r.func.block(0).instructions()[3].opcode(), ir::Opcode::kLoad);
}

TEST(Cse, SelfRedefiningOpNotReused) {
  const auto f = ir::parse_function(
      "func @sr(%0) {\n"
      "entry:\n"
      "  %0 = add %0, 1\n"
      "  %0 = add %0, 1\n"
      "  ret %0\n"
      "}\n");
  const CseResult r = eliminate_common_subexpressions(*f);
  EXPECT_EQ(r.replaced, 0u);
}

TEST(Cse, SemanticsPreservedOnKernels) {
  for (const char* name : {"fir", "matmul", "idct8", "stencil3"}) {
    auto k = workload::make_kernel(name);
    const CseResult r = eliminate_common_subexpressions(k->func);
    EXPECT_TRUE(ir::is_well_formed(r.func)) << name;
    EXPECT_EQ(run(*k, r.func), *k->expected_result) << name;
  }
}

TEST(Cse, FirBodyHasRedundantAddressing) {
  // fir recomputes in_base + i for every tap; CSE must catch them.
  auto k = workload::make_fir(32, 8);
  const CseResult r = eliminate_common_subexpressions(k.func);
  EXPECT_GE(r.replaced, 6u);
  EXPECT_EQ(run(k, r.func), *k.expected_result);
}

TEST(Cse, ComposesWithCoalesceAndDce) {
  auto k = workload::make_fir(32, 8);
  const CseResult cse = eliminate_common_subexpressions(k.func);
  const CoalesceResult coal = coalesce_copies(cse.func);
  const DceResult dce = eliminate_dead_code(coal.func);
  EXPECT_TRUE(ir::is_well_formed(dce.func));
  EXPECT_EQ(run(k, dce.func), *k.expected_result);
  EXPECT_LT(dce.func.instruction_count(), k.func.instruction_count());
}

}  // namespace
}  // namespace tadfa::opt
