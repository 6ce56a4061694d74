// Tests for incremental compilation: pass-boundary snapshots, the
// longest-prefix stage cache, and PassManager::resume. Load-bearing
// properties: a resumed run is byte-identical to a cold run of the same
// spec (printed IR, per-pass stats, merged analysis counters) at any
// job count; extending a compiled spec resumes every function at the
// deepest boundary and skips the whole prefix; corrupt or faulting
// stage entries degrade to a clean full recompile, never wrong output.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ir/printer.hpp"
#include "machine/floorplan.hpp"
#include "pipeline/driver.hpp"
#include "pipeline/result_cache.hpp"
#include "power/model.hpp"
#include "thermal/grid.hpp"
#include "workload/kernels.hpp"
#include "workload/modules.hpp"

namespace tadfa {
namespace {

namespace fs = std::filesystem;

/// The prefix spec every test compiles first...
constexpr const char* kPrefixSpec =
    "cse,dce,alloc=linear:first_free,thermal-dfa,"
    "alloc=coloring:coolest_first";
/// ...and the extension that should resume from its final boundary.
/// (nops cannot follow schedule without a fresh thermal-dfa — that
/// constraint holds cold, too — so the extension ends on schedule.)
constexpr const char* kExtendedSpec =
    "cse,dce,alloc=linear:first_free,thermal-dfa,"
    "alloc=coloring:coolest_first,schedule";

struct IncrementalTest : ::testing::Test {
  machine::Floorplan fp{machine::RegisterFileConfig::default_config()};
  thermal::ThermalGrid grid{fp};
  power::PowerModel power{fp.config()};
  fs::path dir;

  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir = fs::temp_directory_path() /
          (std::string("tadfa-incremental-test-") + info->name() + "-" +
           std::to_string(::getpid()));
    fs::remove_all(dir);
  }
  void TearDown() override {
    fs::remove_all(dir);
    fs::remove_all(dir.string() + "-cold");
  }

  pipeline::PipelineContext context() const {
    pipeline::PipelineContext ctx;
    ctx.floorplan = &fp;
    ctx.grid = &grid;
    ctx.power = &power;
    return ctx;
  }

  ir::Module test_module(std::size_t functions, std::uint64_t seed = 7) {
    workload::ModuleConfig cfg;
    cfg.functions = functions;
    cfg.seed = seed;
    cfg.random_target_instructions = 60;  // keep the suite fast
    return workload::make_mixed_module(cfg);
  }

  pipeline::CompilationDriver staged_driver(pipeline::ResultCache* cache,
                                            unsigned jobs = 1) const {
    pipeline::CompilationDriver driver(context());
    driver.set_jobs(jobs);
    driver.set_result_cache(cache);
    pipeline::StagePolicy policy;
    policy.enabled = true;
    driver.set_stage_policy(policy);
    return driver;
  }

  std::vector<fs::path> entry_files() const {
    std::vector<fs::path> files;
    for (const auto& e : fs::recursive_directory_iterator(dir)) {
      if (e.is_regular_file() && e.path().extension() == ".entry") {
        files.push_back(e.path());
      }
    }
    return files;
  }
};

/// Deterministic fields of two module results must match exactly —
/// printed IR, fingerprints, spills, merged pass stats (timing aside),
/// and the merged analysis counters down to the last invalidation.
void expect_identical(const pipeline::ModulePipelineResult& a,
                      const pipeline::ModulePipelineResult& b) {
  ASSERT_EQ(a.functions.size(), b.functions.size());
  for (std::size_t i = 0; i < a.functions.size(); ++i) {
    EXPECT_EQ(a.functions[i].name, b.functions[i].name);
    EXPECT_EQ(ir::to_string(a.functions[i].run.state.func),
              ir::to_string(b.functions[i].run.state.func));
    EXPECT_EQ(ir::fingerprint(a.functions[i].run.state.func),
              ir::fingerprint(b.functions[i].run.state.func));
    EXPECT_EQ(a.functions[i].run.state.spilled_regs,
              b.functions[i].run.state.spilled_regs);
  }
  const auto a_pass = a.merged_pass_stats();
  const auto b_pass = b.merged_pass_stats();
  ASSERT_EQ(a_pass.size(), b_pass.size());
  for (std::size_t i = 0; i < a_pass.size(); ++i) {
    EXPECT_EQ(a_pass[i].name, b_pass[i].name);
    EXPECT_EQ(a_pass[i].summary, b_pass[i].summary);
    EXPECT_EQ(a_pass[i].changed, b_pass[i].changed);
    EXPECT_EQ(a_pass[i].instructions_after, b_pass[i].instructions_after);
    EXPECT_EQ(a_pass[i].vregs_after, b_pass[i].vregs_after);
  }
  const auto a_an = a.merged_analysis_stats();
  const auto b_an = b.merged_analysis_stats();
  ASSERT_EQ(a_an.size(), b_an.size());
  for (std::size_t i = 0; i < a_an.size(); ++i) {
    EXPECT_EQ(a_an[i], b_an[i]) << a_an[i].name;
  }
}

TEST_F(IncrementalTest, StagePolicyWantsTheRightBoundaries) {
  // wants() only inspects pass names, so this spec need not be runnable.
  const auto passes = *pipeline::parse_pipeline_spec(
      "cse,dce,alloc=linear:first_free,thermal-dfa,"
      "alloc=coloring:coolest_first,schedule,nops");
  pipeline::StagePolicy policy;  // disabled by default
  for (std::size_t i = 0; i < passes.size(); ++i) {
    EXPECT_FALSE(policy.wants(i, passes));
  }
  policy.enabled = true;
  // Expensive passes: alloc (2), thermal-dfa (3), alloc (4). The last
  // boundary (6) is not the policy's: the driver freezes it whenever a
  // cache is attached, because that snapshot is the finished compile.
  EXPECT_FALSE(policy.wants(0, passes));  // cse
  EXPECT_FALSE(policy.wants(1, passes));  // dce
  EXPECT_TRUE(policy.wants(2, passes));   // alloc=linear
  EXPECT_TRUE(policy.wants(3, passes));   // thermal-dfa
  EXPECT_TRUE(policy.wants(4, passes));   // alloc=coloring
  EXPECT_FALSE(policy.wants(5, passes));  // schedule
  EXPECT_FALSE(policy.wants(6, passes));  // nops (the driver's boundary)
  EXPECT_FALSE(policy.wants(7, passes));  // out of range

  // every_k adds boundaries on top of the expensive passes.
  policy.every_k = 3;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    EXPECT_EQ(policy.wants(i, passes),
              (i + 1) % 3 == 0 || (i >= 2 && i <= 4))
        << i;
  }

  // The digest separates placements: records frozen under one policy
  // must not resume a run under another.
  pipeline::StagePolicy other;
  other.enabled = true;
  EXPECT_NE(policy.digest(), other.digest());
}

TEST_F(IncrementalTest, SpecExtensionResumesEveryFunctionAtAnyJobCount) {
  const std::size_t kPrefixLen =
      pipeline::parse_pipeline_spec(kPrefixSpec)->size();
  for (const unsigned jobs : {1u, 8u}) {
    SCOPED_TRACE(jobs);
    fs::remove_all(dir);
    const fs::path cold_dir = dir.string() + "-cold";
    fs::remove_all(cold_dir);
    const auto module = test_module(4);

    pipeline::ResultCache cache(dir.string());
    ASSERT_TRUE(cache.ok()) << cache.error();
    auto driver = staged_driver(&cache, jobs);

    const auto prefix_run = driver.compile(module, kPrefixSpec);
    ASSERT_TRUE(prefix_run.ok) << prefix_run.error;
    EXPECT_EQ(prefix_run.prefix_hits(), 0u);

    const auto resumed = driver.compile(module, kExtendedSpec);
    ASSERT_TRUE(resumed.ok) << resumed.error;
    EXPECT_EQ(resumed.prefix_hits(), module.size());
    EXPECT_EQ(resumed.passes_skipped(), module.size() * kPrefixLen);
    for (const auto& f : resumed.functions) {
      EXPECT_EQ(f.resumed_passes, kPrefixLen) << f.name;
      EXPECT_FALSE(f.from_cache) << f.name;
    }

    // Byte-identity: a cold incremental run of the extended spec on a
    // fresh cache must match the resumed run exactly.
    pipeline::ResultCache cold_cache(cold_dir.string());
    ASSERT_TRUE(cold_cache.ok()) << cold_cache.error();
    auto cold_driver = staged_driver(&cold_cache, jobs);
    const auto cold = cold_driver.compile(module, kExtendedSpec);
    ASSERT_TRUE(cold.ok) << cold.error;
    EXPECT_EQ(cold.prefix_hits(), 0u);
    expect_identical(resumed, cold);
  }
}

TEST_F(IncrementalTest, ResumedRunWritesTheFinishedRecord) {
  const auto module = test_module(3);
  pipeline::ResultCache cache(dir.string());
  ASSERT_TRUE(cache.ok()) << cache.error();
  auto driver = staged_driver(&cache);

  // kPrefixSpec freezes alloc (3), thermal-dfa (4) and its last
  // boundary, alloc=coloring (5): three records per function, the last
  // of them the finished compile.
  ASSERT_TRUE(driver.compile(module, kPrefixSpec).ok);
  EXPECT_EQ(entry_files().size(), 3 * module.size());
  EXPECT_EQ(cache.stats().stores, module.size());
  EXPECT_EQ(cache.stats().stage_stores, 2 * module.size());

  const auto resumed = driver.compile(module, kExtendedSpec);
  ASSERT_TRUE(resumed.ok) << resumed.error;
  EXPECT_EQ(resumed.prefix_hits(), module.size());
  EXPECT_EQ(cache.stats().stage_hits, module.size());

  // Third run of the extended spec: the resumed run's last boundary
  // wrote the finished record, so this one restores without running a
  // single pass.
  const auto warm = driver.compile(module, kExtendedSpec);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(warm.cache_hits(), module.size());
  EXPECT_EQ(warm.prefix_hits(), 0u);
  EXPECT_EQ(cache.stats().stage_hits, module.size());  // k = n: a hit
  expect_identical(resumed, warm);
}

TEST_F(IncrementalTest, TailChangeResumesFromTheDeepestSharedBoundary) {
  const auto module = test_module(3);
  pipeline::ResultCache cache(dir.string());
  ASSERT_TRUE(cache.ok()) << cache.error();
  auto driver = staged_driver(&cache);

  ASSERT_TRUE(
      driver.compile(module, "cse,alloc=linear:first_free,thermal-dfa,schedule")
          .ok);
  // Same prefix through thermal-dfa (an expensive-pass boundary), a
  // different tail: the alloc and DFA work is reused, only the new tail
  // runs.
  const auto retailed =
      driver.compile(module, "cse,alloc=linear:first_free,thermal-dfa,nops");
  ASSERT_TRUE(retailed.ok) << retailed.error;
  EXPECT_EQ(retailed.prefix_hits(), module.size());
  EXPECT_EQ(retailed.passes_skipped(), module.size() * 3);
}

TEST_F(IncrementalTest, LastBoundaryKeepsTheDfaForAnExtensionThatReadsIt) {
  // bank-gating is not an expensive pass, so boundary 3 exists only
  // because it ends the spec — and nops, which the extension appends,
  // reads the DFA's per-instruction states. The finished record must
  // therefore keep the DFA at full fidelity for the resume to succeed.
  const char* base = "alloc=linear:first_free,thermal-dfa,bank-gating";
  const char* extended = "alloc=linear:first_free,thermal-dfa,bank-gating,nops";
  for (const unsigned jobs : {1u, 8u}) {
    SCOPED_TRACE(jobs);
    fs::remove_all(dir);
    const fs::path cold_dir = dir.string() + "-cold";
    fs::remove_all(cold_dir);
    const auto module = test_module(8);

    pipeline::ResultCache cache(dir.string());
    ASSERT_TRUE(cache.ok()) << cache.error();
    auto driver = staged_driver(&cache, jobs);
    ASSERT_TRUE(driver.compile(module, base).ok);
    const auto resumed = driver.compile(module, extended);
    ASSERT_TRUE(resumed.ok) << resumed.error;
    EXPECT_EQ(resumed.prefix_hits(), module.size());
    EXPECT_EQ(resumed.passes_skipped(), 3 * module.size());

    pipeline::ResultCache cold_cache(cold_dir.string());
    ASSERT_TRUE(cold_cache.ok()) << cold_cache.error();
    const auto cold =
        staged_driver(&cold_cache, jobs).compile(module, extended);
    ASSERT_TRUE(cold.ok) << cold.error;
    expect_identical(resumed, cold);
  }
}

TEST_F(IncrementalTest, CorruptStageEntriesDegradeToAFullRecompile) {
  const auto module = test_module(3);
  {
    pipeline::ResultCache cache(dir.string());
    ASSERT_TRUE(cache.ok()) << cache.error();
    auto driver = staged_driver(&cache);
    ASSERT_TRUE(driver.compile(module, kPrefixSpec).ok);
  }

  // Flip a byte near the end of every record (prefixes and finished
  // compiles alike) — the payload digest must catch all of it.
  for (const fs::path& file : entry_files()) {
    std::string bytes;
    {
      std::ifstream in(file, std::ios::binary);
      std::ostringstream buffer;
      buffer << in.rdbuf();
      bytes = buffer.str();
    }
    ASSERT_FALSE(bytes.empty());
    bytes[bytes.size() - 3] ^= 0x5a;
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  pipeline::ResultCache cache(dir.string());
  ASSERT_TRUE(cache.ok()) << cache.error();
  auto driver = staged_driver(&cache);
  const auto recompiled = driver.compile(module, kExtendedSpec);
  ASSERT_TRUE(recompiled.ok) << recompiled.error;
  EXPECT_EQ(recompiled.prefix_hits(), 0u);
  EXPECT_GT(cache.stats().bad_entries, 0u);

  const fs::path cold_dir = dir.string() + "-cold";
  pipeline::ResultCache cold_cache(cold_dir.string());
  ASSERT_TRUE(cold_cache.ok()) << cold_cache.error();
  auto cold_driver = staged_driver(&cold_cache);
  const auto cold = cold_driver.compile(module, kExtendedSpec);
  ASSERT_TRUE(cold.ok) << cold.error;
  expect_identical(recompiled, cold);
}

TEST_F(IncrementalTest, TruncatedStageEntriesDegradeToAFullRecompile) {
  const auto module = test_module(2);
  {
    pipeline::ResultCache cache(dir.string());
    ASSERT_TRUE(cache.ok()) << cache.error();
    auto driver = staged_driver(&cache);
    ASSERT_TRUE(driver.compile(module, kPrefixSpec).ok);
  }
  for (const fs::path& file : entry_files()) {
    fs::resize_file(file, fs::file_size(file) / 2);
  }
  pipeline::ResultCache cache(dir.string());
  ASSERT_TRUE(cache.ok()) << cache.error();
  auto driver = staged_driver(&cache);
  const auto recompiled = driver.compile(module, kExtendedSpec);
  ASSERT_TRUE(recompiled.ok) << recompiled.error;
  EXPECT_EQ(recompiled.prefix_hits(), 0u);
  EXPECT_GT(cache.stats().bad_entries, 0u);
}

TEST_F(IncrementalTest, StageFaultsDegradeToACompileNeverAFailure) {
  const auto module = test_module(3);
  pipeline::ResultCache cache(dir.string());
  ASSERT_TRUE(cache.ok()) << cache.error();
  auto driver = staged_driver(&cache);
  ASSERT_TRUE(driver.compile(module, kPrefixSpec).ok);

  // Every stage operation now throws (cache directory deleted mid-run,
  // disk full, ...): the compile must neither fail nor resume, and the
  // output must match a clean cold run.
  cache.set_fault_hook([](std::string_view op) {
    if (op == "lookup" || op == "insert") {
      throw std::runtime_error("injected stage fault");
    }
  });
  const auto faulted = driver.compile(module, kExtendedSpec);
  ASSERT_TRUE(faulted.ok) << faulted.error;
  EXPECT_EQ(faulted.prefix_hits(), 0u);
  EXPECT_GT(cache.stats().lookup_faults, 0u);
  EXPECT_GT(cache.stats().store_failures, 0u);
  cache.set_fault_hook(nullptr);

  const fs::path cold_dir = dir.string() + "-cold";
  pipeline::ResultCache cold_cache(cold_dir.string());
  ASSERT_TRUE(cold_cache.ok()) << cold_cache.error();
  auto cold_driver = staged_driver(&cold_cache);
  const auto cold = cold_driver.compile(module, kExtendedSpec);
  ASSERT_TRUE(cold.ok) << cold.error;
  expect_identical(faulted, cold);
}

TEST_F(IncrementalTest, ResumePastTheEndOfThePipelineFails) {
  pipeline::PassManager manager(context());
  const auto passes = *pipeline::parse_pipeline_spec("cse,dce");
  const auto cold =
      manager.run(workload::make_kernel("crc32")->func, passes);
  ASSERT_TRUE(cold.ok) << cold.error;

  pipeline::ResumeState resume(
      pipeline::PipelineState(workload::make_kernel("crc32")->func));
  resume.passes_done = 3;  // past the end of a 2-pass pipeline
  const auto run = manager.resume(std::move(resume), passes);
  EXPECT_FALSE(run.ok);
  EXPECT_NE(run.error.find("past the end"), std::string::npos) << run.error;
}

TEST_F(IncrementalTest, DisabledPolicyKeepsPreIncrementalKeysWarm) {
  const auto module = test_module(3);
  pipeline::ResultCache cache(dir.string());
  ASSERT_TRUE(cache.ok()) << cache.error();

  // A plain (non-incremental) driver warms the cache...
  pipeline::CompilationDriver plain(context());
  plain.set_jobs(1);
  plain.set_result_cache(&cache);
  ASSERT_TRUE(plain.compile(module, kPrefixSpec).ok);

  // ...and a second non-incremental driver still hits every entry: a
  // disabled stage policy contributes nothing to the environment digest.
  pipeline::CompilationDriver plain2(context());
  plain2.set_jobs(1);
  plain2.set_result_cache(&cache);
  const auto warm = plain2.compile(module, kPrefixSpec);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(warm.cache_hits(), module.size());

  // An incremental driver keys differently (boundary normalization
  // changes the recorded counters) and must NOT reuse those entries.
  auto staged = staged_driver(&cache);
  const auto cold = staged.compile(module, kPrefixSpec);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_EQ(cold.cache_hits(), 0u);
}

TEST_F(IncrementalTest, ConcurrentWorkersShareTheStageCacheCleanly) {
  // TSan coverage: 8 workers race stage inserts on the cold run and
  // stage lookups + resumes on the extension, all against one cache.
  const auto module = test_module(8);
  pipeline::ResultCache cache(dir.string());
  ASSERT_TRUE(cache.ok()) << cache.error();
  auto driver = staged_driver(&cache, 8);

  const auto prefix_run = driver.compile(module, kPrefixSpec);
  ASSERT_TRUE(prefix_run.ok) << prefix_run.error;

  const auto resumed = driver.compile(module, kExtendedSpec);
  ASSERT_TRUE(resumed.ok) << resumed.error;
  EXPECT_EQ(resumed.prefix_hits(), module.size());

  const fs::path cold_dir = dir.string() + "-cold";
  pipeline::ResultCache cold_cache(cold_dir.string());
  ASSERT_TRUE(cold_cache.ok()) << cold_cache.error();
  auto cold_driver = staged_driver(&cold_cache, 8);
  const auto cold = cold_driver.compile(module, kExtendedSpec);
  ASSERT_TRUE(cold.ok) << cold.error;
  expect_identical(resumed, cold);
}

}  // namespace
}  // namespace tadfa
