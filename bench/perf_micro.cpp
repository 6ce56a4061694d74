// PERF — google-benchmark micro-benchmarks: the analysis must be cheap
// enough to live inside a compiler. Measures the thermal DFA end to end
// vs. program size, RF size, and grid granularity; plus the underlying
// primitives (thermal step, steady state, leakage, liveness, allocation).
#include <benchmark/benchmark.h>

#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "bench_common.hpp"
#include "dataflow/interference.hpp"
#include "dataflow/liveness.hpp"
#include "dataflow/loop_info.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "pipeline/analysis_manager.hpp"
#include "pipeline/pass_manager.hpp"
#include "support/rng.hpp"
#include "workload/modules.hpp"

namespace {

using namespace tadfa;

bench::Rig& rig() {
  static bench::Rig r;
  return r;
}

/// Largest kernel in the standard suite (by instruction count) — the
/// workload the cold-vs-cached analysis benchmarks run on.
const workload::Kernel& largest_kernel() {
  static const workload::Kernel kernel = [] {
    workload::Kernel best;
    for (const workload::Kernel& k : workload::standard_suite()) {
      if (k.func.instruction_count() > best.func.instruction_count()) {
        best = k;
      }
    }
    return best;
  }();
  return kernel;
}

void BM_ThermalStep(benchmark::State& state) {
  const auto sub = static_cast<unsigned>(state.range(0));
  const thermal::ThermalGrid grid(rig().fp, sub);
  auto s = grid.initial_state();
  std::vector<double> p(rig().fp.num_registers(), 1e-4);
  for (auto _ : state) {
    grid.step(s, p, grid.max_stable_dt());
    benchmark::DoNotOptimize(s.nodes().data());
  }
  state.SetLabel(std::to_string(grid.node_count()) + " nodes");
}
BENCHMARK(BM_ThermalStep)->Arg(1)->Arg(2)->Arg(4);

// --- ThermalGrid::step over long windows: Euler loop vs. modal path ----------
// A window of n substeps runs the Euler loop below max(64, node rows +
// node cols) substeps and the closed-form modal path from there on. On
// the 8×8 default floorplan the cutoff is 64 substeps up to subdivision
// 4 and 128 at subdivision 8, so the 63/64 pair straddles it at 1, 2 and
// 4 and the pair 64/1000 at 8. Arg 2 = 0 is dt = +inf, the steady state.
void BM_ThermalWindow(benchmark::State& state) {
  const auto sub = static_cast<unsigned>(state.range(0));
  const auto substeps = static_cast<double>(state.range(1));
  const thermal::ThermalGrid grid(rig().fp, sub);
  auto s = grid.initial_state();
  std::vector<double> p(rig().fp.num_registers(), 1e-4);
  // Half a substep short, so ceil(dt / max_stable_dt()) is `substeps`.
  const double dt = substeps > 0 ? (substeps - 0.5) * grid.max_stable_dt()
                                 : std::numeric_limits<double>::infinity();
  for (auto _ : state) {
    grid.step(s, p, dt);
    benchmark::DoNotOptimize(s.nodes().data());
  }
  state.SetLabel(std::to_string(grid.node_count()) + " nodes");
}
BENCHMARK(BM_ThermalWindow)
    ->ArgsProduct({{1, 2, 4, 8}, {32, 63, 64, 1000, 100000, 0}})
    ->Unit(benchmark::kMicrosecond);

// --- ThermalGrid::step: edge-checked reference vs. the fused pass ------------
// step() used to walk nested row/col loops with four boundary branches
// per node; the grid now runs one branch-free pass per substep between
// two padded temperature planes, with zero-conductance links in place of
// the branches. This reference reproduces the old inner loop (same math,
// same constants) so the pair measures exactly the hot-path rewrite.

struct ReferenceStepper {
  const machine::Floorplan* fp;
  unsigned sub;
  std::size_t rows, cols;
  double substrate_k, g_vertical, g_lateral_h, g_lateral_v, cap, stable_dt;
  std::vector<std::vector<std::size_t>> cell_nodes;

  ReferenceStepper(const machine::Floorplan& floorplan, unsigned subdivision)
      : fp(&floorplan), sub(subdivision) {
    const auto& tech = fp->config().tech;
    rows = static_cast<std::size_t>(fp->config().rows) * sub;
    cols = static_cast<std::size_t>(fp->config().cols) * sub;
    substrate_k = tech.substrate_temp_k;
    const double node_w = tech.cell_width_m / sub;
    const double node_h = tech.cell_height_m / sub;
    const double k = tech.silicon_conductivity;
    cap = node_w * node_h * tech.die_thickness_m *
          tech.silicon_volumetric_heat;
    const double r_cell =
        tech.vertical_resistance_scale /
        (2.0 * k * std::sqrt(tech.cell_area_m2() / 3.14159265358979));
    g_vertical = (1.0 / r_cell) / (sub * sub);
    g_lateral_h = k * (node_h * tech.die_thickness_m) / node_w;
    g_lateral_v = k * (node_w * tech.die_thickness_m) / node_h;
    stable_dt =
        0.9 * cap / (g_vertical + 2 * g_lateral_h + 2 * g_lateral_v);
    cell_nodes.assign(fp->num_registers(), {});
    for (machine::PhysReg r = 0; r < fp->num_registers(); ++r) {
      const std::size_t base_row =
          static_cast<std::size_t>(fp->row_of(r)) * sub;
      const std::size_t base_col =
          static_cast<std::size_t>(fp->col_of(r)) * sub;
      for (unsigned dr = 0; dr < sub; ++dr) {
        for (unsigned dc = 0; dc < sub; ++dc) {
          cell_nodes[r].push_back((base_row + dr) * cols + base_col + dc);
        }
      }
    }
  }

  // The pre-flat-table ThermalGrid::step, verbatim: per-call power
  // spreading + scratch allocation, then nested row/col loops with four
  // boundary branches per node.
  void step(std::vector<double>& t, std::span<const double> reg_power_w,
            double dt) const {
    const std::size_t n = rows * cols;
    std::vector<double> p(n, 0.0);
    const double per_node = 1.0 / (sub * sub);
    for (machine::PhysReg r = 0; r < reg_power_w.size(); ++r) {
      const double share = reg_power_w[r] * per_node;
      for (std::size_t idx : cell_nodes[r]) {
        p[idx] += share;
      }
    }
    const int substeps =
        std::max(1, static_cast<int>(std::ceil(dt / stable_dt)));
    const double h = dt / substeps;
    std::vector<double> flux(n);
    for (int s = 0; s < substeps; ++s) {
      for (std::size_t row = 0; row < rows; ++row) {
        for (std::size_t col = 0; col < cols; ++col) {
          const std::size_t i = row * cols + col;
          double q = p[i] + g_vertical * (substrate_k - t[i]);
          if (col > 0) {
            q += g_lateral_h * (t[i - 1] - t[i]);
          }
          if (col + 1 < cols) {
            q += g_lateral_h * (t[i + 1] - t[i]);
          }
          if (row > 0) {
            q += g_lateral_v * (t[i - cols] - t[i]);
          }
          if (row + 1 < rows) {
            q += g_lateral_v * (t[i + cols] - t[i]);
          }
          flux[i] = q;
        }
      }
      for (std::size_t i = 0; i < n; ++i) {
        t[i] += h * flux[i] / cap;
      }
    }
  }
};

void BM_ThermalStep_Reference(benchmark::State& state) {
  const auto sub = static_cast<unsigned>(state.range(0));
  const ReferenceStepper ref(rig().fp, sub);
  std::vector<double> t(ref.rows * ref.cols, ref.substrate_k);
  std::vector<double> p(rig().fp.num_registers(), 1e-4);
  for (auto _ : state) {
    ref.step(t, p, ref.stable_dt);
    benchmark::DoNotOptimize(t.data());
  }
  state.SetLabel(std::to_string(ref.rows * ref.cols) +
                 " nodes (edge-checked loops)");
}
BENCHMARK(BM_ThermalStep_Reference)->Arg(1)->Arg(2)->Arg(4);

// The n = ∞ case of the modal path: an exact solve.
void BM_SteadyState(benchmark::State& state) {
  const auto sub = static_cast<unsigned>(state.range(0));
  const thermal::ThermalGrid grid(rig().fp, sub);
  std::vector<double> p(rig().fp.num_registers(), 1e-4);
  for (auto _ : state) {
    auto s = grid.steady_state(p);
    benchmark::DoNotOptimize(s.nodes().data());
  }
}
BENCHMARK(BM_SteadyState)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// --- PowerModel::leakage_power: one vectorized pass of the exp kernel -------
// The thermal DFA calls it once per transfer on every register of the
// file (64 cells on the default floorplan, 128 on the large one), adding
// the instruction's dynamic power in the same pass.
void BM_Leakage(benchmark::State& state) {
  const auto cfg = state.range(0) == 64
                       ? machine::RegisterFileConfig::default_config()
                       : machine::RegisterFileConfig::large_config();
  const machine::Floorplan fp(cfg);
  const power::PowerModel power(cfg);
  Rng rng(3);
  std::vector<double> temps(fp.num_registers());
  for (double& t : temps) {
    t = rng.uniform(330.0, 370.0);
  }
  const std::vector<double> dynamic(temps.size(), 1e-4);
  std::vector<double> out(temps.size());
  for (auto _ : state) {
    power.leakage_power(fp, temps, dynamic, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(temps.size()));
  state.SetLabel(std::to_string(temps.size()) + " cells");
}
BENCHMARK(BM_Leakage)->Arg(64)->Arg(128);

void BM_Liveness(benchmark::State& state) {
  workload::RandomProgramConfig cfg;
  cfg.seed = 3;
  cfg.target_instructions = static_cast<int>(state.range(0));
  const ir::Function f = workload::random_program(cfg);
  const dataflow::Cfg graph(f);
  for (auto _ : state) {
    dataflow::Liveness lv(graph);
    benchmark::DoNotOptimize(&lv);
  }
  state.SetLabel(std::to_string(f.instruction_count()) + " instrs");
}
BENCHMARK(BM_Liveness)->Arg(100)->Arg(400)->Arg(1600);

void BM_LinearScan(benchmark::State& state) {
  workload::RandomProgramConfig cfg;
  cfg.seed = 5;
  cfg.target_instructions = static_cast<int>(state.range(0));
  const ir::Function f = workload::random_program(cfg);
  regalloc::FirstFreePolicy policy;
  regalloc::LinearScanAllocator alloc(rig().fp, policy);
  for (auto _ : state) {
    auto r = alloc.allocate(f);
    benchmark::DoNotOptimize(&r);
  }
}
BENCHMARK(BM_LinearScan)->Arg(100)->Arg(400);

void BM_GraphColoring(benchmark::State& state) {
  workload::RandomProgramConfig cfg;
  cfg.seed = 5;
  cfg.target_instructions = static_cast<int>(state.range(0));
  const ir::Function f = workload::random_program(cfg);
  regalloc::FirstFreePolicy policy;
  regalloc::GraphColoringAllocator alloc(rig().fp, policy);
  for (auto _ : state) {
    auto r = alloc.allocate(f);
    benchmark::DoNotOptimize(&r);
  }
}
BENCHMARK(BM_GraphColoring)->Arg(100)->Arg(400);

void BM_ThermalDfa_ProgramSize(benchmark::State& state) {
  workload::RandomProgramConfig cfg;
  cfg.seed = 11;
  cfg.target_instructions = static_cast<int>(state.range(0));
  const ir::Function f = workload::random_program(cfg);
  const auto alloc = bench::allocate(rig(), f, "first_free");
  core::ThermalDfaConfig dcfg;
  dcfg.delta_k = 0.01;
  const core::ThermalDfa dfa(rig().grid, rig().power, rig().timing, dcfg);
  for (auto _ : state) {
    auto r = dfa.analyze_post_ra(alloc.func, alloc.assignment);
    benchmark::DoNotOptimize(&r);
  }
}
BENCHMARK(BM_ThermalDfa_ProgramSize)->Arg(60)->Arg(120)->Arg(240);

void BM_ThermalDfa_Granularity(benchmark::State& state) {
  auto kernel = workload::make_crc32(16);
  const auto alloc = bench::allocate(rig(), kernel.func, "first_free");
  const thermal::ThermalGrid grid(rig().fp,
                                  static_cast<unsigned>(state.range(0)));
  core::ThermalDfaConfig dcfg;
  dcfg.delta_k = 0.01;
  const core::ThermalDfa dfa(grid, rig().power, rig().timing, dcfg);
  for (auto _ : state) {
    auto r = dfa.analyze_post_ra(alloc.func, alloc.assignment);
    benchmark::DoNotOptimize(&r);
  }
}
BENCHMARK(BM_ThermalDfa_Granularity)->Arg(1)->Arg(2)->Arg(3);

void BM_ThermalDfa_RfSize(benchmark::State& state) {
  machine::RegisterFileConfig cfg;
  if (state.range(0) == 16) {
    cfg = machine::RegisterFileConfig::small_config();
  } else if (state.range(0) == 64) {
    cfg = machine::RegisterFileConfig::default_config();
  } else {
    cfg = machine::RegisterFileConfig::large_config();
  }
  bench::Rig local(cfg);
  auto kernel = workload::make_fir(48, 8);
  const auto alloc = bench::allocate(local, kernel.func, "first_free");
  core::ThermalDfaConfig dcfg;
  dcfg.delta_k = 0.01;
  const core::ThermalDfa dfa(local.grid, local.power, local.timing, dcfg);
  for (auto _ : state) {
    auto r = dfa.analyze_post_ra(alloc.func, alloc.assignment);
    benchmark::DoNotOptimize(&r);
  }
}
BENCHMARK(BM_ThermalDfa_RfSize)->Arg(16)->Arg(64)->Arg(128);

// --- AnalysisManager: cold vs. cached ---------------------------------------
// The full per-function analysis stack (Cfg -> Liveness -> intervals /
// interference, Dominators -> loops) on the largest workload kernel.
// "Cold" rebuilds everything per request — the old every-pass behavior;
// "cached" is what the pipeline now does between invalidations.

void BM_AnalysisSuite_Cold(benchmark::State& state) {
  const ir::Function& f = largest_kernel().func;
  for (auto _ : state) {
    pipeline::AnalysisManager am;
    benchmark::DoNotOptimize(&am.get<dataflow::InterferenceGraph>(f));
    benchmark::DoNotOptimize(&am.get<dataflow::LiveIntervals>(f));
    benchmark::DoNotOptimize(&am.get<dataflow::LoopInfo>(f));
  }
  state.SetLabel(largest_kernel().name + ", " +
                 std::to_string(f.instruction_count()) + " instrs");
}
BENCHMARK(BM_AnalysisSuite_Cold);

void BM_AnalysisSuite_Cached(benchmark::State& state) {
  const ir::Function& f = largest_kernel().func;
  pipeline::AnalysisManager am;
  for (auto _ : state) {
    benchmark::DoNotOptimize(&am.get<dataflow::InterferenceGraph>(f));
    benchmark::DoNotOptimize(&am.get<dataflow::LiveIntervals>(f));
    benchmark::DoNotOptimize(&am.get<dataflow::LoopInfo>(f));
  }
  state.SetLabel(largest_kernel().name + ", " +
                 std::to_string(f.instruction_count()) + " instrs");
}
BENCHMARK(BM_AnalysisSuite_Cached);

// A repeated-analysis pipeline spec (transform / verify interleaving, as
// a production pipeline would run it) with the analysis cache on vs. off.
// Same passes, same output — the delta is purely re-derived analyses.
void BM_RepeatedAnalysisPipeline(benchmark::State& state, bool cached) {
  pipeline::PipelineContext ctx;
  ctx.floorplan = &rig().fp;
  ctx.grid = &rig().grid;
  ctx.power = &rig().power;
  pipeline::PassManager manager(ctx);
  manager.set_checkpoints(false);
  manager.set_analysis_caching(cached);
  const ir::Function& f = largest_kernel().func;
  constexpr const char* kSpec =
      "alloc=linear:first_free,verify,dce,verify,coalesce,verify,dce,verify,"
      "coalesce,verify,dce,verify,coalesce,verify,dce,verify,"
      "coalesce,verify,dce,verify,coalesce,verify,dce,verify";
  for (auto _ : state) {
    auto result = manager.run(f, kSpec);
    benchmark::DoNotOptimize(&result);
  }
  state.SetLabel(largest_kernel().name);
}
BENCHMARK_CAPTURE(BM_RepeatedAnalysisPipeline, cold, false);
BENCHMARK_CAPTURE(BM_RepeatedAnalysisPipeline, cached, true);

void BM_Interpreter(benchmark::State& state) {
  auto kernel = workload::make_matmul(8);
  machine::TimingModel timing;
  for (auto _ : state) {
    sim::Interpreter interp(kernel.func, timing);
    kernel.init_memory(interp.memory());
    auto r = interp.run(kernel.default_args);
    benchmark::DoNotOptimize(&r);
  }
}
BENCHMARK(BM_Interpreter);

// --- IR text ------------------------------------------------------------------
// A served request prints its module, the server parses it, every cache
// hit re-parses its stored function text, and every result is printed.
// Both rows run on one 24-function mixed module (seed 12345, 2,265
// instructions, 43.8 KB of text) and report bytes/s.

const ir::Module& text_module() {
  static const ir::Module module = [] {
    workload::ModuleConfig cfg;
    cfg.functions = 24;
    cfg.seed = 12345;
    return workload::make_mixed_module(cfg);
  }();
  return module;
}

void BM_ParseModule(benchmark::State& state) {
  const std::string text = ir::to_string(text_module());
  for (auto _ : state) {
    auto module = ir::parse_module(text);
    benchmark::DoNotOptimize(&module);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_ParseModule)->Unit(benchmark::kMicrosecond);

void BM_PrintModule(benchmark::State& state) {
  std::int64_t bytes = 0;
  for (auto _ : state) {
    const std::string text = ir::to_string(text_module());
    bytes = static_cast<std::int64_t>(text.size());
    benchmark::DoNotOptimize(text.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_PrintModule)->Unit(benchmark::kMicrosecond);

}  // namespace
