// Tests for pipeline::ResultCache — the persistent, content-addressed
// store of pipeline results frozen at pass boundaries, where a finished
// compile is the snapshot after the last pass. Load-bearing properties:
// a record round-trips byte-for-byte (function, stats, assignment and
// full DFA included); the key is sensitive to exactly the inputs a run
// is a pure function of (spec prefix, input fingerprint, and each
// model's config digest independently); corruption of any kind degrades
// to a clean recompile, never to wrong output; and a warm
// CompilationDriver run over a mixed module is byte-identical to the
// cold run at any job count.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
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

constexpr const char* kSpec =
    "cse,dce,alloc=linear:first_free,thermal-dfa,"
    "alloc=coloring:coolest_first,schedule";

struct ResultCacheTest : ::testing::Test {
  machine::Floorplan fp{machine::RegisterFileConfig::default_config()};
  thermal::ThermalGrid grid{fp};
  power::PowerModel power{fp.config()};
  fs::path dir;

  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir = fs::temp_directory_path() /
          (std::string("tadfa-result-cache-test-") + info->name() + "-" +
           std::to_string(::getpid()));
    fs::remove_all(dir);
  }
  void TearDown() override { fs::remove_all(dir); }

  pipeline::PipelineContext context() const {
    pipeline::PipelineContext ctx;
    ctx.floorplan = &fp;
    ctx.grid = &grid;
    ctx.power = &power;
    return ctx;
  }

  ir::Module test_module(std::size_t functions, std::uint64_t seed = 11) {
    workload::ModuleConfig cfg;
    cfg.functions = functions;
    cfg.seed = seed;
    cfg.random_target_instructions = 60;  // keep the suite fast
    return workload::make_mixed_module(cfg);
  }

  /// Every .entry file currently in the cache directory.
  std::vector<fs::path> entry_files() const {
    std::vector<fs::path> files;
    for (const auto& e : fs::recursive_directory_iterator(dir)) {
      if (e.is_regular_file() && e.path().extension() == ".entry") {
        files.push_back(e.path());
      }
    }
    return files;
  }

  static std::string slurp(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

  static void spit(const fs::path& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
};

/// Deterministic fields of two module results must match exactly
/// (printed IR, fingerprints, spills, the vreg -> phys assignment, merged
/// pass + analysis stats).
void expect_identical(const pipeline::ModulePipelineResult& a,
                      const pipeline::ModulePipelineResult& b) {
  ASSERT_EQ(a.functions.size(), b.functions.size());
  for (std::size_t i = 0; i < a.functions.size(); ++i) {
    EXPECT_EQ(a.functions[i].name, b.functions[i].name);
    EXPECT_EQ(ir::to_string(a.functions[i].run.state.func),
              ir::to_string(b.functions[i].run.state.func));
    EXPECT_EQ(ir::fingerprint(a.functions[i].run.state.func),
              ir::fingerprint(b.functions[i].run.state.func));
    EXPECT_EQ(a.functions[i].run.state.func.reg_count(),
              b.functions[i].run.state.func.reg_count());
    EXPECT_EQ(a.functions[i].run.state.spilled_regs,
              b.functions[i].run.state.spilled_regs);
    // Both null, or the same map: a warm hit must hand back the
    // register assignment the cold compile produced.
    const machine::RegisterAssignment* a_map =
        a.functions[i].run.state.assignment();
    const machine::RegisterAssignment* b_map =
        b.functions[i].run.state.assignment();
    EXPECT_EQ(a_map == nullptr, b_map == nullptr) << a.functions[i].name;
    if (a_map != nullptr && b_map != nullptr) {
      EXPECT_TRUE(*a_map == *b_map) << a.functions[i].name;
    }
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

TEST_F(ResultCacheTest, WarmModuleRunIsByteIdenticalAtAnyJobCount) {
  // The acceptance-criterion workload: a ≥200-function mixed module.
  const ir::Module module = test_module(200, /*seed=*/7);

  pipeline::CompilationDriver driver(context());
  pipeline::ResultCache cache(dir.string());
  ASSERT_TRUE(cache.ok()) << cache.error();
  driver.set_result_cache(&cache);

  driver.set_jobs(1);
  const auto cold = driver.compile(module, kSpec);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_EQ(cold.cache_hits(), 0u);
  EXPECT_EQ(cache.stats().stores, module.size());

  const auto warm1 = driver.compile(module, kSpec);
  ASSERT_TRUE(warm1.ok) << warm1.error;
  driver.set_jobs(8);
  const auto warm8 = driver.compile(module, kSpec);
  ASSERT_TRUE(warm8.ok) << warm8.error;

  EXPECT_GE(warm1.cache_hit_rate(), 0.95);
  EXPECT_GE(warm8.cache_hit_rate(), 0.95);
  expect_identical(cold, warm1);
  expect_identical(cold, warm8);
}

TEST_F(ResultCacheTest, WarmHitsRestoreTheFullDfaResult) {
  // A spec ending at thermal-dfa keeps the DFA result alive to the end.
  // The finished record freezes it at full fidelity, so a warm hit's
  // state.dfa() equals the cold one — per-instruction states and δ
  // history included, not a summary.
  const char* spec = "alloc=linear:first_free,thermal-dfa";
  const ir::Module module = test_module(6, /*seed=*/17);

  pipeline::CompilationDriver driver(context());
  pipeline::ResultCache cache(dir.string());
  ASSERT_TRUE(cache.ok()) << cache.error();
  driver.set_result_cache(&cache);
  const auto cold = driver.compile(module, spec);
  ASSERT_TRUE(cold.ok) << cold.error;

  const auto warm = driver.compile(module, spec);
  ASSERT_TRUE(warm.ok) << warm.error;
  for (std::size_t i = 0; i < module.size(); ++i) {
    const auto& f = warm.functions[i];
    ASSERT_TRUE(f.from_cache) << f.name;
    const core::ThermalDfaResult* cold_dfa = cold.functions[i].run.state.dfa();
    const core::ThermalDfaResult* dfa = f.run.state.dfa();
    ASSERT_NE(cold_dfa, nullptr) << f.name;
    ASSERT_NE(dfa, nullptr) << f.name;
    EXPECT_FALSE(dfa->per_instruction.empty()) << f.name;
    EXPECT_TRUE(*dfa == *cold_dfa) << f.name;
  }
  expect_identical(cold, warm);
}

TEST_F(ResultCacheTest, ContextDigestRespondsToEachModelIndependently) {
  const pipeline::PipelineContext base = context();
  const std::uint64_t base_digest =
      pipeline::ResultCache::context_digest(base);

  // Same inputs, same digest.
  EXPECT_EQ(pipeline::ResultCache::context_digest(context()), base_digest);

  // Floorplan geometry.
  machine::Floorplan small_fp(machine::RegisterFileConfig::small_config());
  pipeline::PipelineContext ctx = context();
  ctx.floorplan = &small_fp;
  EXPECT_NE(pipeline::ResultCache::context_digest(ctx), base_digest);

  // Thermal grid resolution.
  thermal::ThermalGrid fine_grid(fp, /*subdivision=*/2);
  ctx = context();
  ctx.grid = &fine_grid;
  EXPECT_NE(pipeline::ResultCache::context_digest(ctx), base_digest);

  // Power coefficients.
  machine::RegisterFileConfig hot_cfg = fp.config();
  hot_cfg.tech.read_energy_j *= 2.0;
  power::PowerModel hot_power(hot_cfg);
  ctx = context();
  ctx.power = &hot_power;
  EXPECT_NE(pipeline::ResultCache::context_digest(ctx), base_digest);

  // Timing table.
  ctx = context();
  ctx.timing.set_latency(ir::Opcode::kMul, 5);
  EXPECT_NE(pipeline::ResultCache::context_digest(ctx), base_digest);

  // DFA configuration and policy seed.
  ctx = context();
  ctx.dfa_config.delta_k = 0.5;
  EXPECT_NE(pipeline::ResultCache::context_digest(ctx), base_digest);
  ctx = context();
  ctx.policy_seed = 1234;
  EXPECT_NE(pipeline::ResultCache::context_digest(ctx), base_digest);
}

TEST_F(ResultCacheTest, KeyFlipsOnFingerprintSpecAndContext) {
  const auto dce = *pipeline::parse_pipeline_spec("dce");
  const auto cse = *pipeline::parse_pipeline_spec("cse");
  const auto dce_cse = *pipeline::parse_pipeline_spec("dce,cse");
  auto key = [](std::uint64_t fp, const std::vector<pipeline::PassSpec>& p,
                std::size_t k, std::uint64_t ctx) {
    return pipeline::ResultCache::make_stage_key(
        fp, pipeline::spec_prefix_digest(p, k), ctx);
  };
  const auto base = key(10, dce, 1, 20);
  EXPECT_EQ(key(10, dce, 1, 20), base);
  EXPECT_NE(key(11, dce, 1, 20), base);
  EXPECT_NE(key(10, cse, 1, 20), base);
  EXPECT_NE(key(10, dce, 1, 21), base);
  // A finished "dce" is the first prefix of "dce,cse": the same record.
  EXPECT_EQ(key(10, dce_cse, 1, 20), base);
  EXPECT_NE(key(10, dce_cse, 2, 20), base);
  EXPECT_EQ(base.text().size(), 32u);
}

TEST_F(ResultCacheTest, CorruptedEntriesFallBackToACleanRecompile) {
  const ir::Module module = test_module(4, /*seed=*/5);
  pipeline::CompilationDriver driver(context());

  {
    pipeline::ResultCache cache(dir.string());
    ASSERT_TRUE(cache.ok()) << cache.error();
    driver.set_result_cache(&cache);
    const auto cold = driver.compile(module, kSpec);
    ASSERT_TRUE(cold.ok) << cold.error;
  }
  const auto files = entry_files();
  ASSERT_EQ(files.size(), module.size());

  // Three corruption flavors: truncation, an emptied file, and a bit
  // flip in the payload (which must be caught by the fingerprint check
  // even when the record still parses).
  const std::string original = slurp(files[0]);
  spit(files[0], original.substr(0, original.size() / 2));
  spit(files[1], "");
  std::string flipped = slurp(files[2]);
  flipped[flipped.size() / 2] =
      static_cast<char>(flipped[flipped.size() / 2] ^ 0x20);
  spit(files[2], flipped);

  pipeline::ResultCache cache(dir.string());
  ASSERT_TRUE(cache.ok()) << cache.error();
  driver.set_result_cache(&cache);
  const auto mixed = driver.compile(module, kSpec);
  ASSERT_TRUE(mixed.ok) << mixed.error;

  // Correct output regardless, and the damage is visible in counters.
  pipeline::CompilationDriver clean_driver(context());
  const auto reference = clean_driver.compile(module, kSpec);
  expect_identical(reference, mixed);
  EXPECT_GE(cache.stats().bad_entries, 3u);
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, module.size());

  // The recompile replaced every damaged entry: fully warm again.
  const auto warm = driver.compile(module, kSpec);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(warm.cache_hits(), module.size());
}

TEST_F(ResultCacheTest, FormatVersionBumpInvalidatesEntries) {
  const ir::Module module = test_module(2, /*seed=*/9);
  pipeline::CompilationDriver driver(context());
  {
    pipeline::ResultCache cache(dir.string());
    ASSERT_TRUE(cache.ok()) << cache.error();
    driver.set_result_cache(&cache);
    ASSERT_TRUE(driver.compile(module, "dce").ok);
  }
  // The u32 format version sits right after the 8-byte magic; bump it
  // in place to fake an entry written by a future format.
  for (const fs::path& file : entry_files()) {
    std::string bytes = slurp(file);
    ASSERT_GT(bytes.size(), 12u);
    bytes[8] = static_cast<char>(bytes[8] + 1);
    spit(file, bytes);
  }
  pipeline::ResultCache cache(dir.string());
  ASSERT_TRUE(cache.ok()) << cache.error();
  driver.set_result_cache(&cache);
  const auto run = driver.compile(module, "dce");
  ASSERT_TRUE(run.ok) << run.error;
  EXPECT_EQ(run.cache_hits(), 0u);
  EXPECT_EQ(cache.stats().bad_entries, module.size());
  EXPECT_EQ(cache.stats().stores, module.size());  // rewritten fresh
}

TEST_F(ResultCacheTest, EvictionKeepsTheCacheUnderItsByteBudget) {
  const ir::Module module = test_module(8, /*seed=*/13);
  pipeline::CompilationDriver driver(context());
  // Size the budget from reality: fill an unbounded cache first, then
  // redo the run against a cache allowed half those bytes.
  std::uint64_t full_bytes = 0;
  {
    pipeline::ResultCache cache(dir.string());
    ASSERT_TRUE(cache.ok()) << cache.error();
    driver.set_result_cache(&cache);
    ASSERT_TRUE(driver.compile(module, "dce").ok);
    full_bytes = cache.total_bytes();
  }
  fs::remove_all(dir);
  const std::uint64_t budget = full_bytes / 2;
  pipeline::ResultCache cache(dir.string(), budget);
  ASSERT_TRUE(cache.ok()) << cache.error();
  driver.set_result_cache(&cache);
  ASSERT_TRUE(driver.compile(module, "dce").ok);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.stores, module.size());
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_LT(cache.entry_count(), module.size());
  EXPECT_GE(cache.entry_count(), 1u);
  // Within budget — except that the newest entry is never evicted, so
  // a single oversized survivor is the one tolerated excess.
  EXPECT_TRUE(cache.total_bytes() <= budget || cache.entry_count() == 1);
  // Index and directory agree after eviction.
  EXPECT_EQ(entry_files().size(), cache.entry_count());
}

TEST_F(ResultCacheTest, ConcurrentDriversShareOneCacheCleanly) {
  // Two drivers race warm/cold lookups and inserts on the same cache —
  // the TSan CI job runs this suite to keep the locking honest.
  const ir::Module module = test_module(8, /*seed=*/3);
  pipeline::ResultCache cache(dir.string());
  ASSERT_TRUE(cache.ok()) << cache.error();

  pipeline::CompilationDriver reference_driver(context());
  const auto reference = reference_driver.compile(module, kSpec);
  ASSERT_TRUE(reference.ok) << reference.error;

  std::vector<pipeline::ModulePipelineResult> results(2);
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      pipeline::CompilationDriver driver(context());
      driver.set_jobs(2);
      driver.set_result_cache(&cache);
      results[static_cast<std::size_t>(t)] = driver.compile(module, kSpec);
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (const auto& result : results) {
    ASSERT_TRUE(result.ok) << result.error;
    expect_identical(reference, result);
  }
  // Every probe resolved to a hit or a miss; nothing was lost.
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, 2 * module.size());
}

TEST_F(ResultCacheTest, DisabledCacheDirectoryDegradesGracefully) {
  // A path that cannot be a directory: a file stands in the way.
  const fs::path blocker = fs::temp_directory_path() /
                           "tadfa-result-cache-test-blocker";
  spit(blocker, "not a directory");
  pipeline::ResultCache cache((blocker / "sub").string());
  EXPECT_FALSE(cache.ok());
  EXPECT_FALSE(cache.error().empty());

  // Lookups miss, inserts drop, compilation still works.
  const ir::Module module = test_module(2);
  pipeline::CompilationDriver driver(context());
  driver.set_result_cache(&cache);
  const auto run = driver.compile(module, "dce");
  ASSERT_TRUE(run.ok) << run.error;
  EXPECT_EQ(run.cache_hits(), 0u);
  fs::remove(blocker);
}

/// Runs `passes` over a kernel (crc32 by default) with a snapshot hook
/// at pass boundary `boundary`, returning the captured StageEntry.
pipeline::StageEntry capture_stage(const pipeline::PassManager& manager,
                                   const std::vector<pipeline::PassSpec>& passes,
                                   std::size_t boundary,
                                   const char* kernel = "crc32") {
  pipeline::StageEntry captured;
  bool fired = false;
  pipeline::SnapshotHooks hooks;
  hooks.want = [boundary](std::size_t index) { return index == boundary; };
  hooks.sink = [&](std::size_t done, const pipeline::PipelineSnapshot& snap,
                   const std::vector<pipeline::PassRunStats>& pass_stats,
                   const std::vector<pipeline::AnalysisManager::AnalysisStats>&
                       analysis_stats,
                   double prefix_seconds) {
    captured = pipeline::StageEntry{static_cast<std::uint32_t>(done), snap,
                                    pass_stats, analysis_stats, prefix_seconds};
    fired = true;
  };
  const auto run =
      manager.run(workload::make_kernel(kernel)->func, passes, hooks);
  EXPECT_TRUE(run.ok) << run.error;
  EXPECT_TRUE(fired);
  return captured;
}

TEST_F(ResultCacheTest, FinishedStageEntryRoundTripsByteForByte) {
  pipeline::PassManager manager(context());
  // Stop right after the DFA, so the finished record carries it.
  const auto passes =
      *pipeline::parse_pipeline_spec("alloc=linear:first_free,thermal-dfa");
  const auto entry = capture_stage(manager, passes, passes.size() - 1);
  ASSERT_EQ(entry.passes_done, passes.size());
  ASSERT_TRUE(entry.snapshot.thermal.has_value());
  ASSERT_TRUE(entry.snapshot.assignment.has_value());
  EXPECT_FALSE(entry.analysis_stats.empty());
  const auto run =
      manager.run(workload::make_kernel("crc32")->func, passes);
  ASSERT_TRUE(run.ok) << run.error;
  EXPECT_EQ(entry.pass_stats.size(), run.pass_stats.size());

  ByteWriter w;
  entry.serialize(w);
  ByteReader r(w.data());
  const auto decoded = pipeline::StageEntry::deserialize(r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(*decoded, entry);

  // Serializing the decoded copy reproduces the exact bytes.
  ByteWriter w2;
  decoded->serialize(w2);
  EXPECT_EQ(w.data(), w2.data());

  // And the decoded entry reconstructs a state whose function is
  // fingerprint-identical to the original, stats and artifacts included.
  const auto restored = decoded->to_resume(run.state.func.name());
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->passes_done, passes.size());
  EXPECT_EQ(ir::to_string(restored->state.func),
            ir::to_string(run.state.func));
  EXPECT_EQ(ir::fingerprint(restored->state.func),
            ir::fingerprint(run.state.func));
  EXPECT_EQ(restored->state.func.reg_count(), run.state.func.reg_count());
  EXPECT_EQ(restored->state.func.stack_slot_count(),
            run.state.func.stack_slot_count());
  EXPECT_EQ(restored->pass_stats, entry.pass_stats);
  EXPECT_EQ(restored->state.analyses.stats(), entry.analysis_stats);
  ASSERT_NE(restored->state.assignment(), nullptr);
  EXPECT_TRUE(*restored->state.assignment() == *run.state.assignment());
  // The DFA is compared with the frozen one: a second run's result
  // differs in its wall-clock field.
  ASSERT_NE(restored->state.dfa(), nullptr);
  EXPECT_TRUE(*restored->state.dfa() == *entry.snapshot.thermal);
}

TEST_F(ResultCacheTest, FinishedRecordRestampsTheRequestedName) {
  pipeline::PassManager manager(context());
  const auto passes = *pipeline::parse_pipeline_spec("dce");
  const auto entry = capture_stage(manager, passes, 0, "fir");

  pipeline::ResultCache cache(dir.string());
  ASSERT_TRUE(cache.ok()) << cache.error();
  ASSERT_TRUE(cache.insert_stage(1, passes, 2, entry));
  EXPECT_EQ(cache.stats().stores, 1u);  // k = n: a finished compile

  // The key ignores names on purpose: an identically-shaped function
  // under another name shares the record and gets its own name back.
  const auto hit = cache.lookup_longest_stage(1, passes, 2, "fir_clone_7",
                                              /*prefixes=*/false);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->passes_done, passes.size());
  EXPECT_EQ(hit->state.func.name(), "fir_clone_7");
  EXPECT_EQ(entry.snapshot.function_fingerprint,
            ir::fingerprint(hit->state.func));
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST_F(ResultCacheTest, StageEntryRoundTripsThroughTheCache) {
  pipeline::PassManager manager(context());
  const auto passes = *pipeline::parse_pipeline_spec(kSpec);
  const auto stage = capture_stage(manager, passes, /*boundary=*/3);
  ASSERT_EQ(stage.passes_done, 4u);  // cse,dce,alloc,thermal-dfa done
  ASSERT_TRUE(stage.snapshot.thermal.has_value());
  // Stage snapshots carry the DFA at full fidelity: per-instruction
  // states must survive so passes like nops can run past the boundary.
  EXPECT_FALSE(stage.snapshot.thermal->per_instruction.empty());

  const std::uint64_t input_fp =
      ir::fingerprint(workload::make_kernel("crc32")->func);
  const std::uint64_t ctx = pipeline::ResultCache::context_digest(context());

  pipeline::ResultCache cache(dir.string());
  ASSERT_TRUE(cache.ok()) << cache.error();
  ASSERT_TRUE(cache.insert_stage(input_fp, passes, ctx, stage));
  const auto restored = cache.lookup_stage(input_fp, passes, 4, ctx);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(*restored, stage);

  // A shorter prefix was never stored: distinct key, clean miss.
  EXPECT_FALSE(cache.lookup_stage(input_fp, passes, 3, ctx).has_value());

  const auto stats = cache.stats();
  EXPECT_EQ(stats.stage_stores, 1u);
  EXPECT_EQ(stats.stage_hits, 1u);
  EXPECT_EQ(stats.stage_misses, 1u);
  EXPECT_EQ(stats.stores, 0u);  // finished-compile counters untouched
}

TEST_F(ResultCacheTest, CorruptStagePayloadIsRemovedAndCountedBad) {
  pipeline::PassManager manager(context());
  const auto passes = *pipeline::parse_pipeline_spec(kSpec);
  const auto stage = capture_stage(manager, passes, /*boundary=*/3);
  const std::uint64_t input_fp =
      ir::fingerprint(workload::make_kernel("crc32")->func);
  const std::uint64_t ctx = pipeline::ResultCache::context_digest(context());

  pipeline::ResultCache cache(dir.string());
  ASSERT_TRUE(cache.ok()) << cache.error();
  ASSERT_TRUE(cache.insert_stage(input_fp, passes, ctx, stage));
  const auto files = entry_files();
  ASSERT_EQ(files.size(), 1u);
  std::string bytes = slurp(files[0]);
  bytes[bytes.size() / 2] ^= 0x40;  // payload flip; the digest catches it
  spit(files[0], bytes);

  EXPECT_FALSE(cache.lookup_stage(input_fp, passes, 4, ctx).has_value());
  EXPECT_EQ(cache.stats().bad_entries, 1u);
  EXPECT_TRUE(entry_files().empty());  // removed on contact
}

TEST_F(ResultCacheTest, CorruptEntryRemovalDecrementsTrackedBytes) {
  // Eviction trusts total_bytes(); if deleting a corrupt record forgot
  // to release its bytes, the phantom accounting would eventually evict
  // healthy records to pay for files that no longer exist.
  pipeline::PassManager manager(context());
  const auto passes = *pipeline::parse_pipeline_spec(kSpec);
  const auto stage = capture_stage(manager, passes, /*boundary=*/3);
  const auto finished = capture_stage(manager, passes, passes.size() - 1);
  const std::uint64_t input_fp =
      ir::fingerprint(workload::make_kernel("crc32")->func);
  const std::uint64_t ctx = pipeline::ResultCache::context_digest(context());

  pipeline::ResultCache cache(dir.string());
  ASSERT_TRUE(cache.ok()) << cache.error();
  ASSERT_TRUE(cache.insert_stage(input_fp, passes, ctx, finished));
  ASSERT_TRUE(cache.insert_stage(input_fp, passes, ctx, stage));
  const std::uint64_t before = cache.total_bytes();

  // Corrupt the prefix record's file (the finished record is the one
  // the probe still restores afterwards).
  const std::string stage_name =
      pipeline::ResultCache::make_stage_key(
          input_fp, pipeline::spec_prefix_digest(passes, 4), ctx)
          .text()
          .substr(2) +
      ".entry";
  const auto files = entry_files();
  ASSERT_EQ(files.size(), 2u);
  std::uint64_t corrupted_size = 0;
  for (const auto& file : files) {
    if (file.filename() == stage_name) {
      std::string bytes = slurp(file);
      corrupted_size = bytes.size();
      bytes[bytes.size() / 2] ^= 0x40;
      spit(file, bytes);
    }
  }
  ASSERT_GT(corrupted_size, 0u);

  EXPECT_FALSE(cache.lookup_stage(input_fp, passes, 4, ctx).has_value());
  EXPECT_EQ(cache.stats().bad_entries, 1u);
  // Exactly the corrupt file's bytes are released, no more, no less.
  EXPECT_EQ(cache.total_bytes(), before - corrupted_size);
  EXPECT_TRUE(cache.lookup_longest_stage(input_fp, passes, ctx, "crc32",
                                         /*prefixes=*/false)
                  .has_value());
}

TEST_F(ResultCacheTest, GraphRecordRoundTripsAndCorruptionDegrades) {
  pipeline::ResultCache cache(dir.string());
  ASSERT_TRUE(cache.ok()) << cache.error();
  const auto key = pipeline::ResultCache::make_graph_key(
      /*module_names_digest=*/0x1234u, kSpec,
      pipeline::ResultCache::context_digest(context()));
  const std::string payload = "serialized dependency graph stand-in";

  // Absent record: a miss, not an error — first compile of the slot.
  EXPECT_EQ(cache.lookup_graph(key).status,
            pipeline::ResultCache::GraphReadStatus::kMiss);
  ASSERT_TRUE(cache.insert_graph(key, payload));
  const auto hit = cache.lookup_graph(key);
  EXPECT_EQ(hit.status, pipeline::ResultCache::GraphReadStatus::kHit);
  EXPECT_EQ(hit.payload, payload);

  // Overwrite is the normal case: an edit-aware compile rewrites the
  // slot when its read was not a clean hit or the graph changed. The
  // accounting swaps the old bytes for the new.
  const std::string payload2 = payload + " (rewritten)";
  ASSERT_TRUE(cache.insert_graph(key, payload2));
  EXPECT_EQ(cache.lookup_graph(key).payload, payload2);
  ASSERT_EQ(entry_files().size(), 1u);

  auto stats = cache.stats();
  EXPECT_EQ(stats.graph_stores, 2u);
  EXPECT_EQ(stats.graph_hits, 2u);
  EXPECT_EQ(stats.graph_misses, 1u);
  EXPECT_EQ(stats.stores, 0u);  // finished-compile counters untouched

  // A flipped payload byte fails the trailing digest: kCorrupt, counted
  // bad, the file removed, and its bytes released from the total.
  const auto before = cache.total_bytes();
  const auto file = entry_files()[0];
  const std::uint64_t size = fs::file_size(file);
  std::string bytes = slurp(file);
  bytes[bytes.size() - 3] ^= 0x5a;
  spit(file, bytes);
  EXPECT_EQ(cache.lookup_graph(key).status,
            pipeline::ResultCache::GraphReadStatus::kCorrupt);
  EXPECT_EQ(cache.stats().bad_entries, 1u);
  EXPECT_TRUE(entry_files().empty());
  EXPECT_EQ(cache.total_bytes(), before - size);

  // After removal the slot reads as a clean miss again.
  EXPECT_EQ(cache.lookup_graph(key).status,
            pipeline::ResultCache::GraphReadStatus::kMiss);
}

/// `stage` relabelled as the freeze after the first `k` passes, so one
/// captured snapshot can fill several record slots.
pipeline::StageEntry at_boundary(pipeline::StageEntry stage, std::size_t k) {
  stage.passes_done = static_cast<std::uint32_t>(k);
  return stage;
}

TEST_F(ResultCacheTest, HitRecencySurvivesAReopen) {
  // The record files are the cache's only state, so LRU order outlives
  // the process through their mtimes: a process that only reads still
  // leaves its hits behind for the next process's evictor.
  pipeline::PassManager manager(context());
  const auto passes = *pipeline::parse_pipeline_spec(kSpec);
  const auto stage = capture_stage(manager, passes, /*boundary=*/3);
  const std::uint64_t input_fp =
      ir::fingerprint(workload::make_kernel("crc32")->func);
  const std::uint64_t ctx = pipeline::ResultCache::context_digest(context());
  auto record_file = [&](std::size_t k) {
    const std::string text =
        pipeline::ResultCache::make_stage_key(
            input_fp, pipeline::spec_prefix_digest(passes, k), ctx)
            .text();
    return dir / text.substr(0, 2) / (text.substr(2) + ".entry");
  };

  std::uint64_t record_bytes = 0;
  {
    pipeline::ResultCache cache(dir.string());
    ASSERT_TRUE(cache.ok()) << cache.error();
    for (std::size_t k = 1; k <= 3; ++k) {
      ASSERT_TRUE(
          cache.insert_stage(input_fp, passes, ctx, at_boundary(stage, k)));
    }
    ASSERT_EQ(cache.total_bytes() % 3, 0u);  // equal-sized records
    record_bytes = cache.total_bytes() / 3;
  }
  // Oldest to newest, hours apart, so the order cannot hinge on the
  // filesystem's timestamp granularity.
  const auto now = fs::file_time_type::clock::now();
  for (std::size_t k = 1; k <= 3; ++k) {
    fs::last_write_time(record_file(k),
                        now - std::chrono::hours(4 - static_cast<int>(k)));
  }
  {
    // A read-only process: it hits k = 1 and stores nothing.
    pipeline::ResultCache cache(dir.string());
    ASSERT_TRUE(cache.ok()) << cache.error();
    ASSERT_TRUE(cache.lookup_stage(input_fp, passes, 1, ctx).has_value());
    EXPECT_EQ(cache.stats().stage_stores, 0u);
  }

  pipeline::ResultCache cache(dir.string(), 3 * record_bytes);
  ASSERT_TRUE(cache.ok()) << cache.error();
  ASSERT_TRUE(
      cache.insert_stage(input_fp, passes, ctx, at_boundary(stage, 4)));
  EXPECT_EQ(cache.stats().evictions, 1u);
  // The hit moved k = 1 past k = 2, which is now the least recent.
  EXPECT_FALSE(fs::exists(record_file(2)));
  EXPECT_TRUE(fs::exists(record_file(1)));
  EXPECT_TRUE(fs::exists(record_file(3)));
  EXPECT_TRUE(fs::exists(record_file(4)));
}

TEST_F(ResultCacheTest, StageEntriesParticipateInEviction) {
  pipeline::PassManager manager(context());
  const auto passes = *pipeline::parse_pipeline_spec(kSpec);
  const auto stage = capture_stage(manager, passes, /*boundary=*/3);
  const std::uint64_t input_fp =
      ir::fingerprint(workload::make_kernel("crc32")->func);
  const std::uint64_t ctx = pipeline::ResultCache::context_digest(context());

  // Size the budget from reality, as the module eviction test does.
  std::uint64_t full_bytes = 0;
  {
    pipeline::ResultCache cache(dir.string());
    ASSERT_TRUE(cache.ok()) << cache.error();
    for (std::size_t k = 1; k <= passes.size(); ++k) {
      ASSERT_TRUE(
          cache.insert_stage(input_fp, passes, ctx, at_boundary(stage, k)));
    }
    full_bytes = cache.total_bytes();
  }
  fs::remove_all(dir);

  const std::uint64_t budget = full_bytes / 2;
  pipeline::ResultCache cache(dir.string(), budget);
  ASSERT_TRUE(cache.ok()) << cache.error();
  for (std::size_t k = 1; k <= passes.size(); ++k) {
    ASSERT_TRUE(
        cache.insert_stage(input_fp, passes, ctx, at_boundary(stage, k)));
  }
  const auto stats = cache.stats();
  // k = 1 .. n-1 are prefix records; k = n is the finished compile.
  EXPECT_EQ(stats.stage_stores, passes.size() - 1);
  EXPECT_EQ(stats.stores, 1u);
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_LT(cache.entry_count(), passes.size());
  EXPECT_TRUE(cache.total_bytes() <= budget || cache.entry_count() == 1);
  EXPECT_EQ(entry_files().size(), cache.entry_count());
}

}  // namespace
}  // namespace tadfa
