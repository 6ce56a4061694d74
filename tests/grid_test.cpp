// The grid-differential harness: every frontend x every named machine.
//
// Each cell of the grid parses a source through one frontend, compiles
// it with the full Sec. 4 pipeline on one machine's rig, and checks the
// compiled function against the interpreter ground truth plus a
// trace-driven thermal replay on that machine's own grid. Alongside the
// grid: the twin-program identity (the same program written in .tir and
// texpr lowers to fingerprint-identical IR), and cache-key isolation
// (distinct machines never share result-cache entries, while the
// "default" machine keeps every key minted before the matrix existed).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "frontend/frontend.hpp"
#include "ir/printer.hpp"
#include "machine/machine_config.hpp"
#include "pipeline/driver.hpp"
#include "pipeline/pass_manager.hpp"
#include "pipeline/result_cache.hpp"
#include "pipeline/rig.hpp"
#include "power/access_trace.hpp"
#include "sim/interpreter.hpp"
#include "sim/thermal_replay.hpp"
#include "workload/kernels.hpp"

namespace tadfa {
namespace {

namespace fs = std::filesystem;

constexpr const char* kSpec =
    "cse,dce,alloc=linear:first_free,thermal-dfa,"
    "alloc=coloring:coolest_first,schedule";

// --- The twin program --------------------------------------------------------
// One program, two surface syntaxes. The texpr form exercises let,
// while, if, and array load/store; the .tir form is its exact lowering
// (asserted below), so every grid cell that compiles one of them
// compiles the same function.

constexpr const char* kTexprTwin = R"(fn twin(n, base) {
  let sum = 0;
  let i = 0;
  while (i < n) {
    base[i] = i * 3;
    if (i % 2 == 0) {
      sum = sum + base[i];
    }
    i = i + 1;
  }
  return sum;
}
)";

constexpr const char* kTirTwin = R"(func @twin(%0, %1) {
entry:
  %2 = const 0
  %3 = const 0
  jmp loop0_head
loop0_head:
  %4 = cmplt %3, %0
  br %4, loop0_body, loop0_end
loop0_body:
  %5 = add %1, %3
  %6 = mul %3, 3
  store %5, %6
  %7 = rem %3, 2
  %8 = cmpeq %7, 0
  br %8, if1_then, if1_else
loop0_end:
  ret %2
if1_then:
  %9 = add %1, %3
  %10 = load %9
  %2 = add %2, %10
  jmp if1_end
if1_else:
  jmp if1_end
if1_end:
  %3 = add %3, 1
  jmp loop0_head
}
)";

const std::vector<std::int64_t> kTwinArgs = {10, 100};
// base[i] = 3i for i in 0..9, summing the even-i entries.
constexpr std::int64_t kTwinExpected = 3 * (0 + 2 + 4 + 6 + 8);

ir::Module parse_or_die(const std::string& frontend,
                        const std::string& source) {
  const frontend::Frontend* fe = frontend::find_frontend(frontend);
  EXPECT_NE(fe, nullptr) << frontend;
  frontend::ParseResult r = fe->parse(source);
  EXPECT_TRUE(r.ok()) << frontend << ": " << r.diagnostics_text();
  return std::move(*r.module);
}

// --- Twin identity -----------------------------------------------------------

TEST(TwinProgram, TexprLowersToTheHandWrittenTir) {
  const ir::Module from_texpr = parse_or_die("texpr", kTexprTwin);
  EXPECT_EQ(ir::to_string(from_texpr), kTirTwin);
}

TEST(TwinProgram, FingerprintsAreIdenticalAcrossFrontends) {
  const ir::Module from_texpr = parse_or_die("texpr", kTexprTwin);
  const ir::Module from_tir = parse_or_die("tir", kTirTwin);
  ASSERT_EQ(from_texpr.size(), 1u);
  ASSERT_EQ(from_tir.size(), 1u);
  EXPECT_EQ(ir::fingerprint(from_texpr.functions().front()),
            ir::fingerprint(from_tir.functions().front()));
  EXPECT_EQ(ir::to_string(from_texpr), ir::to_string(from_tir));
}

TEST(TwinProgram, PrintParseRoundTripPreservesTheFingerprint) {
  // Whatever texpr lowers to must survive a trip through the canonical
  // printer and the tir frontend unchanged — the result cache leans on
  // this when it stores a compiled texpr function as printer text and
  // re-parses it on a hit.
  const ir::Module from_texpr = parse_or_die("texpr", kTexprTwin);
  const ir::Module reparsed =
      parse_or_die("tir", ir::to_string(from_texpr));
  ASSERT_EQ(reparsed.size(), from_texpr.size());
  EXPECT_EQ(ir::fingerprint(reparsed.functions().front()),
            ir::fingerprint(from_texpr.functions().front()));
}

// --- The frontend x machine grid ---------------------------------------------

struct GridCell {
  std::string frontend;
  std::string source;
  std::string function;  // the function the differential runs
  std::vector<std::int64_t> args;
  std::int64_t expected = 0;
  std::function<void(std::vector<std::int64_t>&)> init_memory;
};

std::vector<GridCell> grid_cells() {
  std::vector<GridCell> cells;
  cells.push_back({"tir", kTirTwin, "twin", kTwinArgs, kTwinExpected, {}});
  cells.push_back({"texpr", kTexprTwin, "twin", kTwinArgs, kTwinExpected, {}});
  workload::Kernel crc = *workload::make_kernel("crc32");
  cells.push_back({"kernels", "crc32", "crc32", crc.default_args,
                   *crc.expected_result, crc.init_memory});
  return cells;
}

class MachineGrid : public ::testing::TestWithParam<std::string> {};

TEST_P(MachineGrid, EveryFrontendCompilesAndMatchesTheReplay) {
  const machine::MachineConfig* mc = machine::find_machine(GetParam());
  ASSERT_NE(mc, nullptr) << GetParam();
  const pipeline::CompileRig rig(*mc);
  machine::TimingModel timing;

  for (const GridCell& cell : grid_cells()) {
    const std::string label = cell.frontend + " on " + mc->name;
    const ir::Module module = parse_or_die(cell.frontend, cell.source);
    const ir::Function* input = module.find(cell.function);
    ASSERT_NE(input, nullptr) << label;

    // Interpreter ground truth on the raw lowering.
    {
      sim::Interpreter ref(*input, timing);
      if (cell.init_memory) {
        cell.init_memory(ref.memory());
      }
      const auto r = ref.run(cell.args);
      ASSERT_TRUE(r.ok()) << label << ": " << r.trap.value_or("");
      EXPECT_EQ(r.return_value.value_or(-1), cell.expected) << label;
    }

    // Full thermal-aware pipeline on this machine's rig.
    pipeline::PassManager manager(rig.context());
    const auto run = manager.run(*input, kSpec);
    ASSERT_TRUE(run.ok) << label << ": " << run.error;
    const machine::RegisterAssignment* assignment = run.state.assignment();
    ASSERT_NE(assignment, nullptr) << label;

    // Semantics survive compilation, on every machine.
    sim::Interpreter compiled(run.state.func, timing);
    if (cell.init_memory) {
      cell.init_memory(compiled.memory());
    }
    power::AccessTrace trace(rig.floorplan().num_registers());
    const auto r = compiled.run_traced(cell.args, *assignment, trace);
    ASSERT_TRUE(r.ok()) << label << ": " << r.trap.value_or("");
    EXPECT_EQ(r.return_value.value_or(-1), cell.expected) << label;

    // And the machine's own thermal replay accepts the trace: finite,
    // physical temperatures over the full register file.
    const sim::ThermalReplay replay(rig.grid(), rig.power());
    sim::ReplayConfig cfg;
    cfg.max_repeats = 10;
    const auto replayed = replay.replay(trace, cfg);
    ASSERT_EQ(replayed.final_reg_temps.size(),
              rig.floorplan().num_registers())
        << label;
    EXPECT_GE(replayed.final_stats.peak_k,
              mc->rf.tech.ambient_temp_k - 1.0)
        << label;
    for (double t : replayed.final_reg_temps) {
      ASSERT_TRUE(std::isfinite(t)) << label;
      ASSERT_LT(t, 1000.0) << label;  // no runaway feedback
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMachines, MachineGrid,
    ::testing::ValuesIn(machine::default_machine_registry().names()),
    [](const auto& info) { return info.param; });

// --- Cache-key isolation across machines -------------------------------------

struct GridCacheTest : ::testing::Test {
  fs::path dir;

  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir = fs::temp_directory_path() /
          (std::string("tadfa-grid-test-") + info->name() + "-" +
           std::to_string(::getpid()));
    fs::remove_all(dir);
  }
  void TearDown() override { fs::remove_all(dir); }
};

TEST_F(GridCacheTest, DistinctMachinesNeverShareCacheEntries) {
  const ir::Module module = parse_or_die("kernels", "suite");

  const pipeline::CompileRig default_rig(*machine::find_machine("default"));
  const pipeline::CompileRig dense_rig(*machine::find_machine("dense45"));
  pipeline::ResultCache cache(dir.string());
  ASSERT_TRUE(cache.ok()) << cache.error();

  // Cold on default.
  pipeline::CompilationDriver default_driver(default_rig.context());
  default_driver.set_result_cache(&cache);
  const auto cold = default_driver.compile(module, kSpec);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_EQ(cold.cache_hits(), 0u);
  EXPECT_EQ(cache.stats().stores, module.size());

  // Same module, same spec, same cache — but another machine: every
  // lookup must miss. A cross-config warm hit here would hand dense45
  // results computed against the default machine's thermal model.
  pipeline::CompilationDriver dense_driver(dense_rig.context());
  dense_driver.set_result_cache(&cache);
  const auto other = dense_driver.compile(module, kSpec);
  ASSERT_TRUE(other.ok) << other.error;
  EXPECT_EQ(other.cache_hits(), 0u);
  EXPECT_EQ(cache.stats().stores, 2 * module.size());

  // Back on default: fully warm — dense45's stores disturbed nothing.
  const auto warm = default_driver.compile(module, kSpec);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(warm.cache_hits(), module.size());
}

TEST(MachineDigestsGrid, DefaultMachineKeepsPreMatrixKeys) {
  // The "default" machine must be digest-identical to the unnamed
  // RegisterFileConfig::default_config() every harness hard-coded before
  // the matrix existed, so old cache entries keep hitting.
  EXPECT_EQ(machine::find_machine("default")->config_digest(),
            machine::RegisterFileConfig::default_config().config_digest());

  const pipeline::CompileRig rig(*machine::find_machine("default"));
  machine::Floorplan fp{machine::RegisterFileConfig::default_config()};
  thermal::ThermalGrid grid{fp};
  power::PowerModel power{fp.config()};
  pipeline::PipelineContext legacy;
  legacy.floorplan = &fp;
  legacy.grid = &grid;
  legacy.power = &power;
  EXPECT_EQ(pipeline::ResultCache::context_digest(rig.context()),
            pipeline::ResultCache::context_digest(legacy));

  // Literal digests: keys move only with a marked model change, such as
  // the propagator marker in ThermalGrid::config_digest() or the
  // "leakage exp kernel" marker in PowerModel::config_digest(), never by
  // accident.
  EXPECT_EQ(grid.config_digest(), 0xb8804240588a04a0ull);
  EXPECT_EQ(pipeline::ResultCache::context_digest(rig.context()),
            0x884ab13baf33afd4ull);
}

TEST(MachineDigestsGrid, EveryMachineHasADistinctContextDigest) {
  std::set<std::uint64_t> digests;
  for (const machine::MachineConfig& mc :
       machine::default_machine_registry().entries()) {
    const pipeline::CompileRig rig(mc);
    const auto [it, inserted] = digests.insert(
        pipeline::ResultCache::context_digest(rig.context()));
    (void)it;
    EXPECT_TRUE(inserted) << mc.name << " shares a context digest";
  }
}

}  // namespace
}  // namespace tadfa
