// Tests for dependency-edge invalidation: the DependencyGraph structure,
// its persisted TADFADG1 record, and the edit-aware CompilationDriver
// mode. Load-bearing properties: editing one function invalidates exactly
// that function plus its transitive dependents (everything else restores
// warm, byte-identical to a from-scratch compile of the edited module); a
// corrupt, truncated, or throwing graph record degrades to a conservative
// whole-module recompile — flagged, counted, never a wrong answer; an
// unchanged resubmit writes no record; and concurrent edit-resubmits over
// one shared cache stay deterministic (this suite runs under TSan).
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "machine/floorplan.hpp"
#include "pipeline/dependency_graph.hpp"
#include "pipeline/driver.hpp"
#include "pipeline/result_cache.hpp"
#include "power/model.hpp"
#include "thermal/grid.hpp"
#include "workload/modules.hpp"

namespace tadfa {
namespace {

namespace fs = std::filesystem;

using pipeline::InvalidationReason;

constexpr const char* kSpec =
    "cse,dce,alloc=linear:first_free,thermal-dfa,"
    "alloc=coloring:coolest_first";

/// A tiny module with a reference chain c -> b -> a and a loner d.
/// `a_imm` parameterizes @a's constant, so bumping it models an edit.
ir::Module chain_module(int a_imm = 1) {
  const std::string text =
      "func @a(%0) {\nentry:\n  %1 = const " + std::to_string(a_imm) +
      "\n  %2 = add %0, %1\n  ret %2\n}\n"
      "\n"
      "func @b(%0) {\nentry:\n  %1 = const 2\n  %2 = mul %0, %1\n  ret %2\n}\n"
      "\n"
      "func @c(%0) {\nentry:\n  %1 = const 3\n  %2 = sub %0, %1\n  ret %2\n}\n"
      "\n"
      "func @d(%0) {\nentry:\n  ret %0\n}\n"
      "\n"
      "ref @b -> @a\n"
      "ref @c -> @b\n";
  auto module = ir::parse_module(text);
  EXPECT_TRUE(module.has_value());
  return std::move(*module);
}

struct EditInvalidationTest : ::testing::Test {
  machine::Floorplan fp{machine::RegisterFileConfig::default_config()};
  thermal::ThermalGrid grid{fp};
  power::PowerModel power{fp.config()};
  fs::path dir;

  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir = fs::temp_directory_path() /
          (std::string("tadfa-edit-invalidation-test-") + info->name() +
           "-" + std::to_string(::getpid()));
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

  pipeline::CompilationDriver edit_driver(pipeline::ResultCache* cache,
                                          unsigned jobs = 1) const {
    pipeline::CompilationDriver driver(context());
    driver.set_jobs(jobs);
    driver.set_result_cache(cache);
    driver.set_edit_aware(true);
    return driver;
  }

  /// A from-scratch, uncached compile — the identity reference.
  pipeline::ModulePipelineResult cold_reference(const ir::Module& module) {
    pipeline::CompilationDriver driver(context());
    driver.set_jobs(1);
    return driver.compile(module, kSpec);
  }

  /// The on-disk TADFADG1 records in `dir`, found by their magic (the
  /// little-endian encoding of "TADFADG1" leads every graph record).
  std::vector<fs::path> graph_record_files() const {
    std::vector<fs::path> files;
    for (const auto& e : fs::recursive_directory_iterator(dir)) {
      if (!e.is_regular_file() || e.path().extension() != ".entry") {
        continue;
      }
      std::ifstream in(e.path(), std::ios::binary);
      char head[8] = {};
      in.read(head, sizeof(head));
      if (in.gcount() == 8 && std::string_view(head, 8) == "1GDAFDAT") {
        files.push_back(e.path());
      }
    }
    return files;
  }
};

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
}

/// Bumps the first immediate operand of `func` by one: the smallest
/// verifier-clean edit that changes ir::fingerprint.
bool bump_first_immediate(ir::Function& func) {
  for (ir::BasicBlock& block : func.blocks()) {
    for (ir::Instruction& inst : block.instructions()) {
      for (ir::Operand& op : inst.operands()) {
        if (op.is_imm()) {
          op = ir::Operand::imm(op.imm() + 1);
          return true;
        }
      }
    }
  }
  return false;
}

// ------------------------------------------------- graph construction ----

TEST(DependencyGraph, BuildsSortedNodesWithClosures) {
  const ir::Module module = chain_module();
  const auto graph = pipeline::DependencyGraph::build(module);
  ASSERT_EQ(graph.nodes().size(), 4u);
  EXPECT_EQ(graph.nodes()[0].name, "a");
  EXPECT_EQ(graph.nodes()[3].name, "d");
  EXPECT_TRUE(graph.node("a")->deps.empty());
  EXPECT_EQ(graph.node("b")->deps, std::vector<std::string>{"a"});
  EXPECT_EQ(graph.node("c")->deps, std::vector<std::string>{"b"});
  EXPECT_EQ(graph.dependents_of("a"),
            (std::vector<std::string>{"b", "c"}));
  EXPECT_EQ(graph.dependents_of("b"), std::vector<std::string>{"c"});
  EXPECT_TRUE(graph.dependents_of("d").empty());
}

TEST(DependencyGraph, EditChangesClosureOfTransitiveDependents) {
  const auto before = pipeline::DependencyGraph::build(chain_module(1));
  const auto after = pipeline::DependencyGraph::build(chain_module(9));
  // Only @a's body changed...
  EXPECT_NE(before.node("a")->fingerprint, after.node("a")->fingerprint);
  EXPECT_EQ(before.node("b")->fingerprint, after.node("b")->fingerprint);
  // ...but the closure digest propagates through the whole chain.
  EXPECT_NE(before.node("a")->closure_digest, after.node("a")->closure_digest);
  EXPECT_NE(before.node("b")->closure_digest, after.node("b")->closure_digest);
  EXPECT_NE(before.node("c")->closure_digest, after.node("c")->closure_digest);
  // The loner is untouched, and the module slot identity is stable.
  EXPECT_EQ(before.node("d")->closure_digest, after.node("d")->closure_digest);
  EXPECT_EQ(before.names_digest(), after.names_digest());
}

TEST(DependencyGraph, SerializeRoundTripsAndRejectsTruncation) {
  const auto graph = pipeline::DependencyGraph::build(chain_module());
  ByteWriter w;
  graph.serialize(w);
  {
    ByteReader r(w.data());
    const auto parsed = pipeline::DependencyGraph::deserialize(r);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, graph);
    EXPECT_EQ(r.remaining(), 0u);
  }
  // Every proper prefix must be rejected, never mis-decoded or looped on.
  const std::string bytes = w.data();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    ByteReader r(std::string_view(bytes).substr(0, len));
    EXPECT_FALSE(pipeline::DependencyGraph::deserialize(r).has_value())
        << "prefix of " << len << " bytes decoded";
  }
}

TEST(DependencyGraph, DiffLabelsEditsDependentsAndNewcomers) {
  const auto before = pipeline::DependencyGraph::build(chain_module(1));
  ir::Module now_module = chain_module(9);
  auto extra = ir::parse_function("func @e(%0) {\nentry:\n  ret %0\n}\n");
  ASSERT_TRUE(extra.has_value());
  now_module.add_function(std::move(*extra));
  const auto now = pipeline::DependencyGraph::build(now_module);
  const auto decisions = diff_graphs(before, now);
  ASSERT_EQ(decisions.size(), 5u);  // a b c d e, sorted
  EXPECT_EQ(decisions[0].reason, InvalidationReason::kEdited);
  EXPECT_EQ(decisions[1].reason, InvalidationReason::kDependent);
  EXPECT_EQ(decisions[1].via, "b -> a");
  EXPECT_EQ(decisions[2].reason, InvalidationReason::kDependent);
  EXPECT_EQ(decisions[2].via, "c -> b -> a");
  EXPECT_EQ(decisions[3].reason, InvalidationReason::kWarm);
  EXPECT_EQ(decisions[4].reason, InvalidationReason::kNew);
}

// ------------------------------------------------- edit-aware driver -----

TEST_F(EditInvalidationTest, FirstCompileIsAllNew) {
  pipeline::ResultCache cache(dir.string());
  ASSERT_TRUE(cache.ok());
  const auto result = edit_driver(&cache).compile(chain_module(), kSpec);
  ASSERT_TRUE(result.ok);
  EXPECT_FALSE(result.graph_degraded);
  for (const auto& f : result.functions) {
    EXPECT_EQ(f.reason, InvalidationReason::kNew) << f.name;
  }
  EXPECT_EQ(result.cache_hits(), 0u);
  EXPECT_EQ(cache.stats().graph_stores, 1u);
  EXPECT_EQ(graph_record_files().size(), 1u);
}

TEST_F(EditInvalidationTest, ResubmitRecompilesOnlyEditedAndDependents) {
  pipeline::ResultCache cache(dir.string());
  ASSERT_TRUE(cache.ok());
  auto driver = edit_driver(&cache);
  ASSERT_TRUE(driver.compile(chain_module(), kSpec).ok);

  // Unchanged resubmit: everything warm, nothing recompiled.
  const auto warm = driver.compile(chain_module(), kSpec);
  ASSERT_TRUE(warm.ok);
  EXPECT_EQ(warm.cache_hits(), warm.functions.size());
  for (const auto& f : warm.functions) {
    EXPECT_EQ(f.reason, InvalidationReason::kWarm) << f.name;
  }

  // Edit @a: exactly @a (edited) + @b, @c (dependents) recompile; the
  // loner @d restores warm. The via paths name the walked edges.
  const ir::Module edited = chain_module(9);
  const auto resubmit = driver.compile(edited, kSpec);
  ASSERT_TRUE(resubmit.ok);
  EXPECT_FALSE(resubmit.graph_degraded);
  EXPECT_EQ(resubmit.invalidated_by_edit(), 1u);
  EXPECT_EQ(resubmit.invalidated_by_edge(), 2u);
  for (const auto& f : resubmit.functions) {
    if (f.name == "a") {
      EXPECT_EQ(f.reason, InvalidationReason::kEdited);
      EXPECT_FALSE(f.from_cache);
    } else if (f.name == "b") {
      EXPECT_EQ(f.reason, InvalidationReason::kDependent);
      EXPECT_EQ(f.invalidated_via, "b -> a");
      EXPECT_FALSE(f.from_cache);
    } else if (f.name == "c") {
      EXPECT_EQ(f.reason, InvalidationReason::kDependent);
      EXPECT_EQ(f.invalidated_via, "c -> b -> a");
      EXPECT_FALSE(f.from_cache);
    } else {
      EXPECT_EQ(f.reason, InvalidationReason::kWarm);
      EXPECT_TRUE(f.from_cache);
    }
  }
  expect_identical(resubmit, cold_reference(edited));
}

TEST_F(EditInvalidationTest, UnchangedResubmitWritesNoRecord) {
  // An unchanged resubmit only reads: no record file appears, goes or
  // changes, and the graph record is not rewritten. Its read still
  // refreshes the record's mtime, the on-disk LRU stamp. Checked with
  // and without stage snapshots (the `serve --incremental` setting).
  auto entry_files = [this] {
    std::map<fs::path, std::string> files;
    for (const auto& e : fs::recursive_directory_iterator(dir)) {
      if (e.is_regular_file() && e.path().extension() == ".entry") {
        std::ifstream in(e.path(), std::ios::binary);
        files[e.path()].assign(std::istreambuf_iterator<char>(in), {});
      }
    }
    return files;
  };
  for (const bool staged : {false, true}) {
    SCOPED_TRACE(staged ? "stage policy on" : "stage policy off");
    fs::remove_all(dir);
    pipeline::ResultCache cache(dir.string());
    ASSERT_TRUE(cache.ok());
    auto driver = edit_driver(&cache);
    if (staged) {
      driver.set_stage_policy(pipeline::StagePolicy{.enabled = true});
    }
    ASSERT_TRUE(driver.compile(chain_module(), kSpec).ok);

    const auto records = graph_record_files();
    ASSERT_EQ(records.size(), 1u);
    const fs::path graph = records[0];
    const auto backdated =
        fs::file_time_type::clock::now() - std::chrono::hours(1);
    fs::last_write_time(graph, backdated);
    const auto files = entry_files();
    const std::uint64_t stores = cache.stats().graph_stores;

    const auto warm = driver.compile(chain_module(), kSpec);
    ASSERT_TRUE(warm.ok);
    EXPECT_EQ(warm.cache_hits(), warm.functions.size());
    EXPECT_EQ(entry_files(), files);
    EXPECT_EQ(cache.stats().graph_stores, stores);
    EXPECT_GT(fs::last_write_time(graph), backdated);

    // An edit changes the graph: exactly one more store, new bytes.
    ASSERT_TRUE(driver.compile(chain_module(9), kSpec).ok);
    EXPECT_EQ(cache.stats().graph_stores, stores + 1);
    EXPECT_NE(entry_files().at(graph), files.at(graph));
  }
}

TEST_F(EditInvalidationTest, EditAwareMatchesColdAtAnyJobCount) {
  workload::ModuleConfig cfg;
  cfg.functions = 12;
  cfg.seed = 7;
  cfg.random_target_instructions = 60;  // keep the suite fast
  const ir::Module module = workload::make_mixed_module(cfg);
  const auto reference = cold_reference(module);
  ASSERT_TRUE(reference.ok);

  // A local edit: the function with the fewest transitive dependents (at
  // least one; ties go to the first name) gets its first immediate bumped.
  const auto graph = pipeline::DependencyGraph::build(module);
  std::string target;
  std::size_t dependents = 0;
  for (const pipeline::DependencyNode& node : graph.nodes()) {
    const std::size_t n = graph.dependents_of(node.name).size();
    if (n > 0 && (target.empty() || n < dependents)) {
      target = node.name;
      dependents = n;
    }
  }
  ASSERT_FALSE(target.empty());
  ir::Module edited = module;
  ASSERT_TRUE(bump_first_immediate(*edited.find(target)));
  const auto edited_reference = cold_reference(edited);
  ASSERT_TRUE(edited_reference.ok);

  for (const unsigned jobs : {1u, 8u}) {
    SCOPED_TRACE(jobs);
    const fs::path jdir = dir / ("jobs-" + std::to_string(jobs));
    pipeline::ResultCache cache(jdir.string());
    ASSERT_TRUE(cache.ok());
    auto driver = edit_driver(&cache, jobs);
    const auto cold = driver.compile(module, kSpec);
    ASSERT_TRUE(cold.ok);
    expect_identical(cold, reference);
    const auto warm = driver.compile(module, kSpec);
    ASSERT_TRUE(warm.ok);
    EXPECT_EQ(warm.cache_hits(), warm.functions.size());
    expect_identical(warm, reference);

    // The edit recompiles exactly the edited function and its dependents.
    const auto resubmit = driver.compile(edited, kSpec);
    ASSERT_TRUE(resubmit.ok);
    EXPECT_EQ(resubmit.functions.size() - resubmit.cache_hits(),
              1 + dependents);
    EXPECT_EQ(resubmit.invalidated_by_edge(), dependents);
    expect_identical(resubmit, edited_reference);
  }
}

TEST_F(EditInvalidationTest, CorruptGraphRecordDegradesToFullRecompile) {
  pipeline::ResultCache cache(dir.string());
  ASSERT_TRUE(cache.ok());
  auto driver = edit_driver(&cache);
  ASSERT_TRUE(driver.compile(chain_module(), kSpec).ok);

  const auto records = graph_record_files();
  ASSERT_EQ(records.size(), 1u);
  {
    std::fstream f(records[0],
                   std::ios::binary | std::ios::in | std::ios::out);
    const auto size = fs::file_size(records[0]);
    f.seekp(static_cast<std::streamoff>(size) - 3);
    char byte = 0;
    f.seekg(static_cast<std::streamoff>(size) - 3);
    f.read(&byte, 1);
    byte ^= 0x5a;
    f.seekp(static_cast<std::streamoff>(size) - 3);
    f.write(&byte, 1);
  }

  // A fresh cache (so the in-memory LRU does not mask the disk) reads
  // the corrupt record: the run degrades to a conservative whole-module
  // recompile — nothing served from cache, every reason says why, and
  // the output still matches a from-scratch compile exactly.
  pipeline::ResultCache reopened(dir.string());
  ASSERT_TRUE(reopened.ok());
  const auto degraded = edit_driver(&reopened).compile(chain_module(), kSpec);
  ASSERT_TRUE(degraded.ok);
  EXPECT_TRUE(degraded.graph_degraded);
  EXPECT_EQ(degraded.cache_hits(), 0u);
  for (const auto& f : degraded.functions) {
    EXPECT_EQ(f.reason, InvalidationReason::kGraphDegraded) << f.name;
  }
  EXPECT_GE(reopened.stats().bad_entries, 1u);
  expect_identical(degraded, cold_reference(chain_module()));

  // The degraded run rewrote the graph, so the next resubmit recovers.
  const auto recovered = edit_driver(&reopened).compile(chain_module(), kSpec);
  ASSERT_TRUE(recovered.ok);
  EXPECT_FALSE(recovered.graph_degraded);
  EXPECT_EQ(recovered.cache_hits(), recovered.functions.size());
}

TEST_F(EditInvalidationTest, TruncatedGraphRecordDegradesToFullRecompile) {
  pipeline::ResultCache cache(dir.string());
  ASSERT_TRUE(cache.ok());
  ASSERT_TRUE(edit_driver(&cache).compile(chain_module(), kSpec).ok);
  const auto records = graph_record_files();
  ASSERT_EQ(records.size(), 1u);
  fs::resize_file(records[0], fs::file_size(records[0]) / 2);

  pipeline::ResultCache reopened(dir.string());
  ASSERT_TRUE(reopened.ok());
  const auto degraded = edit_driver(&reopened).compile(chain_module(), kSpec);
  ASSERT_TRUE(degraded.ok);
  EXPECT_TRUE(degraded.graph_degraded);
  EXPECT_EQ(degraded.cache_hits(), 0u);
  expect_identical(degraded, cold_reference(chain_module()));
}

TEST_F(EditInvalidationTest, AbsentGraphRecordIsAFirstCompileNotDegraded) {
  pipeline::ResultCache cache(dir.string());
  ASSERT_TRUE(cache.ok());
  ASSERT_TRUE(edit_driver(&cache).compile(chain_module(), kSpec).ok);
  const auto records = graph_record_files();
  ASSERT_EQ(records.size(), 1u);
  fs::remove(records[0]);

  // No record is a miss, not corruption: the diff runs against the
  // empty graph (everything kNew), and the result entries — still on
  // disk — are allowed to serve.
  pipeline::ResultCache reopened(dir.string());
  ASSERT_TRUE(reopened.ok());
  const auto result = edit_driver(&reopened).compile(chain_module(), kSpec);
  ASSERT_TRUE(result.ok);
  EXPECT_FALSE(result.graph_degraded);
  for (const auto& f : result.functions) {
    EXPECT_EQ(f.reason, InvalidationReason::kNew) << f.name;
  }
  EXPECT_EQ(result.cache_hits(), result.functions.size());
}

TEST_F(EditInvalidationTest, ThrowingGraphLookupDegradesAndRecovers) {
  pipeline::ResultCache cache(dir.string());
  ASSERT_TRUE(cache.ok());
  ASSERT_TRUE(edit_driver(&cache).compile(chain_module(), kSpec).ok);

  cache.set_fault_hook([](std::string_view op) {
    if (op == "graph-lookup") {
      throw std::runtime_error("injected graph-lookup fault");
    }
  });
  const auto degraded = edit_driver(&cache).compile(chain_module(), kSpec);
  ASSERT_TRUE(degraded.ok);
  EXPECT_TRUE(degraded.graph_degraded);
  EXPECT_GE(cache.stats().lookup_faults, 1u);
  expect_identical(degraded, cold_reference(chain_module()));

  cache.set_fault_hook(nullptr);
  const auto recovered = edit_driver(&cache).compile(chain_module(), kSpec);
  ASSERT_TRUE(recovered.ok);
  EXPECT_FALSE(recovered.graph_degraded);
  EXPECT_EQ(recovered.cache_hits(), recovered.functions.size());
}

TEST_F(EditInvalidationTest, ThrowingGraphInsertOnlySkipsTheStore) {
  pipeline::ResultCache cache(dir.string());
  ASSERT_TRUE(cache.ok());
  cache.set_fault_hook([](std::string_view op) {
    if (op == "graph-insert") {
      throw std::runtime_error("injected graph-insert fault");
    }
  });
  const auto result = edit_driver(&cache).compile(chain_module(), kSpec);
  ASSERT_TRUE(result.ok);
  EXPECT_FALSE(result.graph_degraded);
  EXPECT_GE(cache.stats().store_failures, 1u);
  EXPECT_TRUE(graph_record_files().empty());
  expect_identical(result, cold_reference(chain_module()));
}

TEST_F(EditInvalidationTest, ConcurrentEditResubmitsStayDeterministic) {
  // One warm shared cache; 8 workers resubmit the same edited module
  // concurrently, each through its own edit-aware driver. ResultCache is
  // the only shared mutable object. Every worker must produce the
  // reference output — this suite runs under TSan, so a racy graph
  // rewrite or probe would also fail the build's race detector.
  pipeline::ResultCache cache(dir.string());
  ASSERT_TRUE(cache.ok());
  ASSERT_TRUE(edit_driver(&cache).compile(chain_module(), kSpec).ok);

  const ir::Module edited = chain_module(9);
  const auto reference = cold_reference(edited);
  ASSERT_TRUE(reference.ok);

  constexpr std::size_t kWorkers = 8;
  std::vector<pipeline::ModulePipelineResult> results(kWorkers);
  {
    std::vector<std::thread> workers;
    workers.reserve(kWorkers);
    for (std::size_t w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&, w] {
        results[w] = edit_driver(&cache, 2).compile(chain_module(9), kSpec);
      });
    }
    for (std::thread& t : workers) {
      t.join();
    }
  }
  for (std::size_t w = 0; w < kWorkers; ++w) {
    ASSERT_TRUE(results[w].ok) << "worker " << w;
    EXPECT_FALSE(results[w].graph_degraded) << "worker " << w;
    expect_identical(results[w], reference);
  }
  // The rewritten graph must still be the single healthy record.
  EXPECT_EQ(graph_record_files().size(), 1u);
  const auto after = edit_driver(&cache).compile(chain_module(9), kSpec);
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(after.cache_hits(), after.functions.size());
}

}  // namespace
}  // namespace tadfa
