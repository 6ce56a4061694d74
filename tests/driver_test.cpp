// Tests for pipeline::CompilationDriver — module-level compilation over a
// worker pool. The load-bearing property: compiling the same module with
// --jobs 1 and --jobs 8 is byte-identical (printed IR, per-function
// fingerprints, merged pass and analysis statistics), so parallelism is
// purely a wall-clock optimization.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "machine/floorplan.hpp"
#include "pipeline/driver.hpp"
#include "pipeline/result_cache.hpp"
#include "power/model.hpp"
#include "thermal/grid.hpp"
#include "workload/modules.hpp"

namespace tadfa {
namespace {

/// Rig shared by every test in this suite (immutable, like the driver's
/// shared context in production).
struct DriverTest : ::testing::Test {
  machine::Floorplan fp{machine::RegisterFileConfig::default_config()};
  thermal::ThermalGrid grid{fp};
  power::PowerModel power{fp.config()};

  pipeline::PipelineContext context() const {
    pipeline::PipelineContext ctx;
    ctx.floorplan = &fp;
    ctx.grid = &grid;
    ctx.power = &power;
    return ctx;
  }
};

/// The full Sec. 4 flavor used by the determinism tests: allocation,
/// thermal DFA, heat-guided re-allocation, scheduling.
constexpr const char* kSpec =
    "cse,dce,alloc=linear:first_free,thermal-dfa,"
    "alloc=coloring:coolest_first,schedule";

ir::Module test_module(std::size_t functions, std::uint64_t seed = 11) {
  workload::ModuleConfig cfg;
  cfg.functions = functions;
  cfg.seed = seed;
  cfg.random_target_instructions = 60;  // keep the suite fast
  return workload::make_mixed_module(cfg);
}

TEST_F(DriverTest, GeneratedModulesAreWellFormedAndUniquelyNamed) {
  const ir::Module module = test_module(24);
  ASSERT_EQ(module.size(), 24u);
  EXPECT_TRUE(ir::verify(module).empty());
}

TEST_F(DriverTest, ModuleTextRoundTrips) {
  const ir::Module module = test_module(8);
  const std::string text = ir::to_string(module);
  ir::ParseError error;
  const auto reparsed = ir::parse_module(text, &error);
  ASSERT_TRUE(reparsed.has_value()) << error.message;
  ASSERT_EQ(reparsed->size(), module.size());
  for (std::size_t i = 0; i < module.size(); ++i) {
    EXPECT_EQ(ir::to_string(reparsed->functions()[i]),
              ir::to_string(module.functions()[i]));
    EXPECT_EQ(ir::fingerprint(reparsed->functions()[i]),
              ir::fingerprint(module.functions()[i]));
  }
}

TEST_F(DriverTest, CompilesEveryFunctionInModuleOrder) {
  const ir::Module module = test_module(12);
  pipeline::CompilationDriver driver(context());
  driver.set_jobs(4);
  const auto result = driver.compile(module, kSpec);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.functions.size(), module.size());
  for (std::size_t i = 0; i < module.size(); ++i) {
    EXPECT_EQ(result.functions[i].name, module.functions()[i].name());
    EXPECT_TRUE(result.functions[i].run.ok);
    EXPECT_TRUE(result.functions[i].run.state.has_assignment());
  }
}

TEST_F(DriverTest, ParallelCompilationIsByteIdenticalToSerial) {
  const ir::Module module = test_module(24);

  pipeline::CompilationDriver driver(context());
  driver.set_jobs(1);
  const auto serial = driver.compile(module, kSpec);
  ASSERT_TRUE(serial.ok) << serial.error;

  driver.set_jobs(8);
  const auto parallel = driver.compile(module, kSpec);
  ASSERT_TRUE(parallel.ok) << parallel.error;
  EXPECT_EQ(parallel.jobs, 8u);

  // Per-function: identical printed IR and fingerprints.
  ASSERT_EQ(serial.functions.size(), parallel.functions.size());
  for (std::size_t i = 0; i < serial.functions.size(); ++i) {
    EXPECT_EQ(serial.functions[i].name, parallel.functions[i].name);
    EXPECT_EQ(ir::to_string(serial.functions[i].run.state.func),
              ir::to_string(parallel.functions[i].run.state.func));
    EXPECT_EQ(ir::fingerprint(serial.functions[i].run.state.func),
              ir::fingerprint(parallel.functions[i].run.state.func));
    EXPECT_EQ(serial.functions[i].run.state.spilled_regs,
              parallel.functions[i].run.state.spilled_regs);
  }

  // Merged pass statistics: identical in every deterministic field
  // (timing is the one thing threads may change).
  const auto s_stats = serial.merged_pass_stats();
  const auto p_stats = parallel.merged_pass_stats();
  ASSERT_EQ(s_stats.size(), p_stats.size());
  for (std::size_t i = 0; i < s_stats.size(); ++i) {
    EXPECT_EQ(s_stats[i].name, p_stats[i].name);
    EXPECT_EQ(s_stats[i].summary, p_stats[i].summary);
    EXPECT_EQ(s_stats[i].changed, p_stats[i].changed);
    EXPECT_EQ(s_stats[i].instructions_after, p_stats[i].instructions_after);
    EXPECT_EQ(s_stats[i].vregs_after, p_stats[i].vregs_after);
  }

  // Merged analysis-cache statistics: identical counters.
  const auto s_cache = serial.merged_analysis_stats();
  const auto p_cache = parallel.merged_analysis_stats();
  ASSERT_EQ(s_cache.size(), p_cache.size());
  for (std::size_t i = 0; i < s_cache.size(); ++i) {
    EXPECT_EQ(s_cache[i].name, p_cache[i].name);
    EXPECT_EQ(s_cache[i].hits, p_cache[i].hits);
    EXPECT_EQ(s_cache[i].misses, p_cache[i].misses);
    EXPECT_EQ(s_cache[i].puts, p_cache[i].puts);
    EXPECT_EQ(s_cache[i].invalidations, p_cache[i].invalidations);
  }
}

TEST_F(DriverTest, RepeatedRunsAreDeterministic) {
  const ir::Module module = test_module(6, /*seed=*/3);
  pipeline::CompilationDriver driver(context());
  driver.set_jobs(4);
  const auto a = driver.compile(module, kSpec);
  const auto b = driver.compile(module, kSpec);
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(b.ok) << b.error;
  for (std::size_t i = 0; i < a.functions.size(); ++i) {
    EXPECT_EQ(ir::fingerprint(a.functions[i].run.state.func),
              ir::fingerprint(b.functions[i].run.state.func));
  }
}

TEST_F(DriverTest, SpecErrorRejectsWholeModuleBeforeAnyWork) {
  const ir::Module module = test_module(4);
  pipeline::CompilationDriver driver(context());
  const auto result = driver.compile(module, "dce,no-such-pass");
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.functions.empty());
  EXPECT_NE(result.error.find("no-such-pass"), std::string::npos)
      << result.error;
}

TEST_F(DriverTest, PerFunctionFailureNamesFirstFailureInModuleOrder) {
  const ir::Module module = test_module(6);
  pipeline::CompilationDriver driver(context());
  driver.set_jobs(4);
  // split-hot without a thermal-dfa ranking fails in every function; the
  // reported error must name the *first* one regardless of which worker
  // finished first.
  const auto result = driver.compile(module, "split-hot=1");
  EXPECT_FALSE(result.ok);
  ASSERT_EQ(result.functions.size(), module.size());
  EXPECT_NE(
      result.error.find("function '" + module.functions()[0].name() + "'"),
      std::string::npos)
      << result.error;
}

TEST_F(DriverTest, CacheFaultsDegradeToMissesInsteadOfTerminating) {
  // Regression for the headline PR 5 bug: the work item called
  // cache_->lookup/insert outside any try/catch, so a filesystem
  // exception thrown under the cache escaped the worker thread and
  // std::terminate'd the whole process. With the fix, a compile against
  // a cache whose every touch throws must complete — byte-identical to
  // an uncached compile — with the faults visible in the counters.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("tadfa-driver-fault-cache-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  const ir::Module module = test_module(10);

  pipeline::CompilationDriver driver(context());
  driver.set_jobs(4);
  const auto reference = driver.compile(module, kSpec);
  ASSERT_TRUE(reference.ok) << reference.error;

  pipeline::ResultCache cache(dir.string());
  ASSERT_TRUE(cache.ok()) << cache.error();
  cache.set_fault_hook([](std::string_view) {
    throw fs::filesystem_error("injected cache I/O failure",
                               std::make_error_code(std::errc::io_error));
  });
  driver.set_result_cache(&cache);
  const auto faulted = driver.compile(module, kSpec);
  ASSERT_TRUE(faulted.ok) << faulted.error;
  ASSERT_EQ(faulted.functions.size(), module.size());
  EXPECT_EQ(faulted.cache_hits(), 0u);
  for (std::size_t i = 0; i < module.size(); ++i) {
    EXPECT_EQ(ir::to_string(faulted.functions[i].run.state.func),
              ir::to_string(reference.functions[i].run.state.func));
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.lookup_faults, module.size());
  EXPECT_EQ(stats.store_failures, module.size());
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.stores, 0u);
  fs::remove_all(dir);
}

TEST_F(DriverTest, CacheDirectoryRemovedMidCompileStillCompletes) {
  // The other flavor of the same failure: the cache directory vanishes
  // while workers are mid-module (an operator `rm -rf`, a tmpfs
  // cleaner). The first warm lookup triggers the removal; everything
  // after must degrade gracefully and the module must still come out
  // byte-identical to the cold run.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("tadfa-driver-vanish-cache-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  const ir::Module module = test_module(10);

  pipeline::CompilationDriver driver(context());
  driver.set_jobs(4);
  pipeline::ResultCache cache(dir.string());
  ASSERT_TRUE(cache.ok()) << cache.error();
  driver.set_result_cache(&cache);
  const auto cold = driver.compile(module, kSpec);
  ASSERT_TRUE(cold.ok) << cold.error;

  std::atomic<bool> removed{false};
  cache.set_fault_hook([&](std::string_view op) {
    if (op == "lookup" && !removed.exchange(true)) {
      fs::remove_all(dir);
    }
  });
  const auto warm = driver.compile(module, kSpec);
  // The hook must have fired: an op name it no longer matches would
  // quietly turn this into a plain warm run.
  EXPECT_TRUE(removed.load());
  ASSERT_TRUE(warm.ok) << warm.error;
  ASSERT_EQ(warm.functions.size(), module.size());
  for (std::size_t i = 0; i < module.size(); ++i) {
    EXPECT_EQ(ir::to_string(warm.functions[i].run.state.func),
              ir::to_string(cold.functions[i].run.state.func));
  }
  fs::remove_all(dir);
}

TEST_F(DriverTest, JobCountClampsToModuleSize) {
  pipeline::CompilationDriver driver(context());
  driver.set_jobs(64);
  EXPECT_EQ(driver.effective_jobs(3), 3u);
  EXPECT_EQ(driver.effective_jobs(0), 1u);
  driver.set_jobs(2);
  EXPECT_EQ(driver.effective_jobs(100), 2u);
}

TEST_F(DriverTest, ModuleVerifierCatchesDuplicateNames) {
  ir::Module module = test_module(2);
  ir::Function dup = module.functions()[0];  // same name added twice
  module.add_function(std::move(dup));
  const auto issues = ir::verify(module);
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues.front().message.find("duplicate"), std::string::npos);
}

TEST_F(DriverTest, VerifierRejectsNamelessFunctions) {
  ir::Function func("");
  func.add_block("entry");
  const auto issues = ir::verify(func);
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues.front().message.find("no name"), std::string::npos);
}

}  // namespace
}  // namespace tadfa
