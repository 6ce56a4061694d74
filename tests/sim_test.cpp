// Tests for src/sim: interpreter semantics (including traps), access
// tracing through a register assignment, and the trace-driven thermal
// replay pipeline.
#include <gtest/gtest.h>

#include "ir/parser.hpp"
#include "regalloc/linear_scan.hpp"
#include "regalloc/policy.hpp"
#include "sim/interpreter.hpp"
#include "sim/thermal_replay.hpp"
#include "workload/kernels.hpp"

namespace tadfa::sim {
namespace {

ir::Function parse(const std::string& text) {
  auto f = ir::parse_function(text);
  EXPECT_TRUE(f.has_value());
  return std::move(*f);
}

machine::TimingModel timing;

// ------------------------------------------------------------- semantics ----

TEST(Interpreter, ArithmeticOps) {
  ir::Function f = parse(
      "func @a(%0, %1) {\n"
      "entry:\n"
      "  %2 = add %0, %1\n"
      "  %3 = mul %2, 3\n"
      "  %4 = sub %3, %1\n"
      "  ret %4\n"
      "}\n");
  Interpreter interp(f, timing);
  const auto r = interp.run(std::vector<std::int64_t>{5, 2});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r.return_value, 19);  // (5+2)*3-2
}

TEST(Interpreter, BitwiseAndShift) {
  ir::Function f = parse(
      "func @b(%0) {\n"
      "entry:\n"
      "  %1 = and %0, 255\n"
      "  %2 = or %1, 256\n"
      "  %3 = xor %2, 1\n"
      "  %4 = shl %3, 2\n"
      "  %5 = shr %4, 1\n"
      "  %6 = not %5\n"
      "  %7 = neg %6\n"
      "  ret %7\n"
      "}\n");
  Interpreter interp(f, timing);
  const auto r = interp.run(std::vector<std::int64_t>{0x1ff});
  ASSERT_TRUE(r.ok());
  const std::int64_t v = ((((0x1ff & 255) | 256) ^ 1) << 2) >> 1;
  EXPECT_EQ(*r.return_value, -(~v));
}

TEST(Interpreter, CompareAndMinMax) {
  ir::Function f = parse(
      "func @c(%0, %1) {\n"
      "entry:\n"
      "  %2 = cmplt %0, %1\n"
      "  %3 = cmpge %0, %1\n"
      "  %4 = min %0, %1\n"
      "  %5 = max %0, %1\n"
      "  %6 = add %2, %3\n"
      "  %7 = add %4, %5\n"
      "  %8 = mul %6, %7\n"
      "  ret %8\n"
      "}\n");
  Interpreter interp(f, timing);
  const auto r = interp.run(std::vector<std::int64_t>{3, 9});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r.return_value, 12);  // (1+0)*(3+9)
}

TEST(Interpreter, MemoryRoundTrip) {
  ir::Function f = parse(
      "func @m(%0) {\n"
      "entry:\n"
      "  store 100, %0\n"
      "  %1 = load 100\n"
      "  ret %1\n"
      "}\n");
  Interpreter interp(f, timing);
  const auto r = interp.run(std::vector<std::int64_t>{777});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r.return_value, 777);
}

TEST(Interpreter, BranchTakesCorrectArm) {
  ir::Function f = parse(
      "func @br(%0) {\n"
      "entry:\n"
      "  br %0, then, other\n"
      "then:\n"
      "  %1 = const 1\n"
      "  ret %1\n"
      "other:\n"
      "  %1 = const 2\n"
      "  ret %1\n"
      "}\n");
  Interpreter i1(f, timing);
  EXPECT_EQ(*i1.run(std::vector<std::int64_t>{5}).return_value, 1);
  Interpreter i2(f, timing);
  EXPECT_EQ(*i2.run(std::vector<std::int64_t>{0}).return_value, 2);
}

TEST(Interpreter, DivisionByZeroTraps) {
  ir::Function f = parse(
      "func @d(%0) {\n"
      "entry:\n"
      "  %1 = div 10, %0\n"
      "  ret %1\n"
      "}\n");
  Interpreter interp(f, timing);
  const auto r = interp.run(std::vector<std::int64_t>{0});
  EXPECT_FALSE(r.ok());
  ASSERT_TRUE(r.trap.has_value());
  EXPECT_NE(r.trap->find("zero"), std::string::npos);
}

TEST(Interpreter, BadAddressTraps) {
  ir::Function f = parse(
      "func @oob(%0) {\n"
      "entry:\n"
      "  %1 = load %0\n"
      "  ret %1\n"
      "}\n");
  Interpreter interp(f, timing);
  EXPECT_FALSE(interp.run(std::vector<std::int64_t>{-1}).ok());
  Interpreter interp2(f, timing);
  EXPECT_FALSE(
      interp2.run(std::vector<std::int64_t>{1LL << 40}).ok());
}

TEST(Interpreter, InstructionLimitTraps) {
  ir::Function f = parse(
      "func @inf() {\n"
      "entry:\n"
      "  jmp entry\n"
      "}\n");
  ExecutionOptions opts;
  opts.max_instructions = 100;
  Interpreter interp(f, timing, opts);
  const auto r = interp.run({});
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.trap->find("limit"), std::string::npos);
}

TEST(Interpreter, CyclesFollowTimingModel) {
  ir::Function f = parse(
      "func @t() {\n"
      "entry:\n"
      "  %0 = const 6\n"
      "  %1 = mul %0, %0\n"
      "  %2 = div %1, %0\n"
      "  ret %2\n"
      "}\n");
  Interpreter interp(f, timing);
  const auto r = interp.run({});
  ASSERT_TRUE(r.ok());
  // const(1) + mul(3) + div(12) + ret(1) = 17
  EXPECT_EQ(r.cycles, 17u);
  EXPECT_EQ(r.instructions, 4u);
}

TEST(Interpreter, BlockVisitsCountLoopIterations) {
  workload::Kernel k = workload::make_counter(25);
  Interpreter interp(k.func, timing);
  const auto r = interp.run(k.default_args);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.block_visits[0], 1u);
  EXPECT_EQ(r.block_visits[1], 26u);  // head: 25 taken + 1 exit check
  EXPECT_EQ(r.block_visits[2], 25u);  // body
  EXPECT_EQ(r.block_visits[3], 1u);   // exit
}

// ----------------------------------------------------------------- tracing ----

machine::RegisterAssignment allocate(const ir::Function& func,
                                     ir::Function& out) {
  const machine::Floorplan fp(machine::RegisterFileConfig::default_config());
  regalloc::FirstFreePolicy policy;
  regalloc::LinearScanAllocator alloc(fp, policy);
  auto r = alloc.allocate(func);
  out = std::move(r.func);
  return r.assignment;
}

TEST(Tracing, EveryAccessRecorded) {
  ir::Function f = parse(
      "func @tr(%0) {\n"
      "entry:\n"
      "  %1 = add %0, %0\n"
      "  %2 = mul %1, %0\n"
      "  ret %2\n"
      "}\n");
  ir::Function allocated("");
  const auto assignment = allocate(f, allocated);
  Interpreter interp(allocated, timing);
  power::AccessTrace trace(64);
  const auto r = interp.run_traced(std::vector<std::int64_t>{3}, assignment,
                                   trace);
  ASSERT_TRUE(r.ok());
  // add: 2 reads + 1 write; mul: 2 reads + 1 write; ret: 1 read.
  EXPECT_EQ(trace.events().size(), 7u);
  EXPECT_EQ(trace.duration_cycles(), r.cycles);
}

TEST(Tracing, ReadsAndWritesSplit) {
  ir::Function f = parse(
      "func @rw() {\n"
      "entry:\n"
      "  %0 = const 4\n"
      "  %1 = add %0, %0\n"
      "  ret %1\n"
      "}\n");
  ir::Function allocated("");
  const auto assignment = allocate(f, allocated);
  Interpreter interp(allocated, timing);
  power::AccessTrace trace(64);
  ASSERT_TRUE(interp.run_traced({}, assignment, trace).ok());
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  for (const auto& c : trace.totals()) {
    reads += c.reads;
    writes += c.writes;
  }
  EXPECT_EQ(writes, 2u);  // const def + add def
  EXPECT_EQ(reads, 3u);   // add 2 + ret 1
}

TEST(Tracing, CyclesNondecreasing) {
  workload::Kernel k = workload::make_fir(32, 4);
  ir::Function allocated("");
  const auto assignment = allocate(k.func, allocated);
  Interpreter interp(allocated, timing);
  if (k.init_memory) {
    k.init_memory(interp.memory());
  }
  power::AccessTrace trace(64);
  ASSERT_TRUE(interp.run_traced(k.default_args, assignment, trace).ok());
  for (std::size_t i = 1; i < trace.events().size(); ++i) {
    EXPECT_LE(trace.events()[i - 1].cycle, trace.events()[i].cycle);
  }
}

TEST(Tracing, AllocatedKernelStillComputesExpected) {
  // Allocation (with spills) must not change semantics.
  workload::Kernel k = workload::make_matmul(6);
  ir::Function allocated("");
  const auto assignment = allocate(k.func, allocated);
  Interpreter interp(allocated, timing);
  if (k.init_memory) {
    k.init_memory(interp.memory());
  }
  power::AccessTrace trace(64);
  const auto r = interp.run_traced(k.default_args, assignment, trace);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r.return_value, *k.expected_result);
  EXPECT_FALSE(trace.events().empty());
}

// ------------------------------------------------------------ thermal replay ----

TEST(ThermalReplay, HeatsAccessedRegisters) {
  workload::Kernel k = workload::make_crc32(32);
  ir::Function allocated("");
  const auto assignment = allocate(k.func, allocated);
  Interpreter interp(allocated, timing);
  if (k.init_memory) {
    k.init_memory(interp.memory());
  }
  power::AccessTrace trace(64);
  ASSERT_TRUE(interp.run_traced(k.default_args, assignment, trace).ok());

  const machine::Floorplan fp(machine::RegisterFileConfig::default_config());
  const thermal::ThermalGrid grid(fp);
  const power::PowerModel model(fp.config());
  const ThermalReplay replay(grid, model);
  const auto result = replay.replay(trace);

  EXPECT_GT(result.final_stats.peak_k, grid.substrate_temp());
  EXPECT_GT(result.final_stats.max_gradient_k, 0.0);
  EXPECT_GT(result.dynamic_energy_j, 0.0);
  EXPECT_GT(result.leakage_energy_j, 0.0);
  // Peak-over-time dominates the final value everywhere.
  for (std::size_t r = 0; r < result.final_reg_temps.size(); ++r) {
    EXPECT_GE(result.peak_reg_temps[r] + 1e-12, result.final_reg_temps[r]);
  }
}

TEST(ThermalReplay, RepeatsSettle) {
  workload::Kernel k = workload::make_counter(256);
  ir::Function allocated("");
  const auto assignment = allocate(k.func, allocated);
  Interpreter interp(allocated, timing);
  power::AccessTrace trace(64);
  ASSERT_TRUE(
      interp.run_traced(k.default_args, assignment, trace).ok());

  const machine::Floorplan fp(machine::RegisterFileConfig::default_config());
  const thermal::ThermalGrid grid(fp);
  const power::PowerModel model(fp.config());
  const ThermalReplay replay(grid, model);
  ReplayConfig cfg;
  cfg.max_repeats = 400;  // short trace: one repeat is ~1k cycles, and the
                          // electrothermal leakage loop settles slowly
  const auto result = replay.replay(trace, cfg);
  EXPECT_TRUE(result.settled);
  EXPECT_LT(result.repeats_run, 400);
}

TEST(ThermalReplay, SingleRepeatCanSettle) {
  // Regression: the old `rep > 0` guard made `settled` unreachable under
  // max_repeats == 1. A trace that injects no power leaves the map at
  // the substrate temperature, which is exactly the "already settled"
  // case a single-repeat replay must be able to report.
  const machine::Floorplan fp(machine::RegisterFileConfig::default_config());
  const thermal::ThermalGrid grid(fp);
  const power::PowerModel model(fp.config());
  const ThermalReplay replay(grid, model);

  power::AccessTrace idle(fp.num_registers());
  idle.set_duration_cycles(512);
  ReplayConfig cfg;
  cfg.max_repeats = 1;
  cfg.include_leakage = false;  // zero power in, zero temperature motion
  const auto settled = replay.replay(idle, cfg);
  EXPECT_EQ(settled.repeats_run, 1);
  EXPECT_TRUE(settled.settled);

  // A genuinely heating trace must still report unsettled after one
  // repeat — the fix may not turn every single-repeat run "settled".
  workload::Kernel k = workload::make_counter(256);
  ir::Function allocated("");
  const auto assignment = allocate(k.func, allocated);
  Interpreter interp(allocated, timing);
  power::AccessTrace hot(64);
  ASSERT_TRUE(interp.run_traced(k.default_args, assignment, hot).ok());
  const auto heating = replay.replay(hot, cfg);
  EXPECT_EQ(heating.repeats_run, 1);
  EXPECT_FALSE(heating.settled);
}

TEST(ThermalReplay, GatedBanksRunCooler) {
  workload::Kernel k = workload::make_vecsum(64);
  ir::Function allocated("");
  const auto assignment = allocate(k.func, allocated);
  Interpreter interp(allocated, timing);
  if (k.init_memory) {
    k.init_memory(interp.memory());
  }
  power::AccessTrace trace(64);
  ASSERT_TRUE(interp.run_traced(k.default_args, assignment, trace).ok());

  const machine::Floorplan fp(machine::RegisterFileConfig::default_config());
  const thermal::ThermalGrid grid(fp);
  const power::PowerModel model(fp.config());
  const ThermalReplay replay(grid, model);
  ReplayConfig plain;
  ReplayConfig gated;
  gated.gated_banks = {false, true, true, true};  // first-fit uses bank 0
  const auto r_plain = replay.replay(trace, plain);
  const auto r_gated = replay.replay(trace, gated);
  EXPECT_LT(r_gated.leakage_energy_j, r_plain.leakage_energy_j);
}

TEST(ThermalReplay, WindowSizeInsensitiveAtSteadyState) {
  workload::Kernel k = workload::make_poly7(64);
  ir::Function allocated("");
  const auto assignment = allocate(k.func, allocated);
  Interpreter interp(allocated, timing);
  if (k.init_memory) {
    k.init_memory(interp.memory());
  }
  power::AccessTrace trace(64);
  ASSERT_TRUE(interp.run_traced(k.default_args, assignment, trace).ok());

  const machine::Floorplan fp(machine::RegisterFileConfig::default_config());
  const thermal::ThermalGrid grid(fp);
  const power::PowerModel model(fp.config());
  const ThermalReplay replay(grid, model);
  ReplayConfig coarse;
  coarse.window_cycles = 1024;
  coarse.max_repeats = 20;
  ReplayConfig fine;
  fine.window_cycles = 128;
  fine.max_repeats = 20;
  const auto rc = replay.replay(trace, coarse);
  const auto rf = replay.replay(trace, fine);
  EXPECT_NEAR(rc.final_stats.peak_k, rf.final_stats.peak_k, 0.3);
}

}  // namespace
}  // namespace tadfa::sim

// Appended: memory-traffic counters.
namespace tadfa::sim {
namespace {

TEST(Interpreter, CountsLoadsAndStores) {
  ir::Function f = parse(
      "func @mem(%0) {\n"
      "entry:\n"
      "  store 100, %0\n"
      "  store 101, %0\n"
      "  %1 = load 100\n"
      "  ret %1\n"
      "}\n");
  Interpreter interp(f, timing);
  const auto r = interp.run(std::vector<std::int64_t>{7});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.loads, 1u);
  EXPECT_EQ(r.stores, 2u);
}

TEST(Interpreter, SpillingAddsMemoryTraffic) {
  // Spilled code must show more loads/stores than the original — the
  // cycle/energy cost side of the paper's spill-to-cool trade.
  workload::Kernel k = workload::make_accumulators(16, 24);
  machine::TimingModel tm;
  sim::Interpreter before(k.func, tm);
  const auto r_before = before.run(k.default_args);
  ASSERT_TRUE(r_before.ok());

  const machine::Floorplan fp(machine::RegisterFileConfig::small_config());
  regalloc::FirstFreePolicy policy;
  regalloc::LinearScanAllocator alloc_engine(fp, policy);
  const auto alloc = alloc_engine.allocate(k.func);
  ASSERT_GT(alloc.spilled_regs, 0u);

  sim::Interpreter after(alloc.func, tm);
  const auto r_after = after.run(k.default_args);
  ASSERT_TRUE(r_after.ok());
  EXPECT_GT(r_after.loads + r_after.stores,
            r_before.loads + r_before.stores);
  EXPECT_EQ(*r_after.return_value, *r_before.return_value);
}

}  // namespace
}  // namespace tadfa::sim
