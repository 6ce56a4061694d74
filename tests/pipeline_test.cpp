// Tests for src/pipeline — the spec grammar, the registry, the
// PassManager's verifier checkpoints, and (the load-bearing property)
// equivalence between spec-driven runs and the hand-wired Sec. 4 flow the
// pipeline replaced.
#include <gtest/gtest.h>

#include <sstream>

#include "core/critical.hpp"
#include "core/thermal_dfa.hpp"
#include "frontend/frontend.hpp"
#include "ir/printer.hpp"
#include "opt/coalesce.hpp"
#include "opt/cse.hpp"
#include "opt/dce.hpp"
#include "opt/schedule.hpp"
#include "opt/spill_critical.hpp"
#include "opt/split.hpp"
#include "pipeline/pass_manager.hpp"
#include "regalloc/graph_coloring.hpp"
#include "regalloc/linear_scan.hpp"
#include "regalloc/policy.hpp"
#include "sim/interpreter.hpp"
#include "workload/kernels.hpp"

namespace tadfa {
namespace {

// --- Spec grammar ------------------------------------------------------------

TEST(PipelineSpec, ParsesNamesAndArguments) {
  const auto passes = pipeline::parse_pipeline_spec(
      " cse, dce ,alloc=coloring:coolest_first,split-hot=2 ");
  ASSERT_TRUE(passes.has_value());
  ASSERT_EQ(passes->size(), 4u);
  EXPECT_EQ((*passes)[0].name, "cse");
  EXPECT_TRUE((*passes)[0].args.empty());
  EXPECT_EQ((*passes)[2].name, "alloc");
  EXPECT_EQ((*passes)[2].args,
            (std::vector<std::string>{"coloring", "coolest_first"}));
  EXPECT_EQ((*passes)[3].args, (std::vector<std::string>{"2"}));
}

TEST(PipelineSpec, RoundTrips) {
  const std::string canonical =
      "cse,dce,alloc=coloring:coolest_first,thermal-dfa,split-hot=2,"
      "alloc=linear:first_free,schedule";
  const auto passes = pipeline::parse_pipeline_spec(canonical);
  ASSERT_TRUE(passes.has_value());
  EXPECT_EQ(pipeline::spec_to_string(*passes), canonical);

  // Whitespace normalizes away; a second round-trip is a fixed point.
  const auto respaced =
      pipeline::parse_pipeline_spec(" cse , dce,alloc=coloring:coolest_first "
                                    ", thermal-dfa,split-hot=2, "
                                    "alloc=linear:first_free , schedule");
  ASSERT_TRUE(respaced.has_value());
  EXPECT_EQ(*respaced, *passes);
  EXPECT_EQ(pipeline::spec_to_string(*respaced), canonical);
}

TEST(PipelineSpec, RejectsMalformedSpecs) {
  pipeline::SpecError error;
  EXPECT_FALSE(pipeline::parse_pipeline_spec("", &error).has_value());
  EXPECT_FALSE(pipeline::parse_pipeline_spec("cse,,dce", &error).has_value());
  EXPECT_EQ(error.index, 1u);
  EXPECT_FALSE(pipeline::parse_pipeline_spec("alloc=", &error).has_value());
  EXPECT_FALSE(
      pipeline::parse_pipeline_spec("alloc=linear:", &error).has_value());
  EXPECT_FALSE(pipeline::parse_pipeline_spec("CSE", &error).has_value());
  EXPECT_FALSE(pipeline::parse_pipeline_spec("c se", &error).has_value());
}

TEST(PipelineSpec, EveryRegisteredSpellingIsAParseFixpoint) {
  // One spelling per registered pass plus the argument variants the
  // tools and docs use. parse -> spec_to_string -> parse must be a
  // fixed point for each: spec canonicalization is what stage-cache
  // keys are built on, so a spelling that drifts under re-serialization
  // would silently split the cache.
  const std::vector<std::string> spellings = {
      "cse",
      "dce",
      "coalesce",
      "promote",
      "promote=2",
      "alloc=linear",
      "alloc=linear:first_free",
      "alloc=linear:round_robin",
      "alloc=coloring:coolest_first",
      "alloc=coloring:coolest_first:7",
      "thermal-dfa",
      "split-hot",
      "split-hot=1",
      "split-hot=2",
      "spill-critical",
      "spill-critical=1",
      "reassign",
      "schedule",
      "nops",
      "nops=2",
      "nops=2:340",
      "bank-gating",
      "bank-gating=330",
      "verify",
  };
  for (const std::string& spelling : spellings) {
    const auto parsed = pipeline::parse_pipeline_spec(spelling);
    ASSERT_TRUE(parsed.has_value()) << spelling;
    ASSERT_EQ(parsed->size(), 1u) << spelling;
    const std::string canonical = pipeline::spec_to_string(*parsed);
    const auto reparsed = pipeline::parse_pipeline_spec(canonical);
    ASSERT_TRUE(reparsed.has_value()) << canonical;
    EXPECT_EQ(*reparsed, *parsed) << spelling;
    EXPECT_EQ(pipeline::spec_to_string(*reparsed), canonical) << spelling;
  }
}

TEST(PipelineSpec, PrefixDigestIsStableAcrossEquivalentSpellings) {
  const auto canonical = pipeline::parse_pipeline_spec(
      "cse,dce,alloc=coloring:coolest_first,thermal-dfa,schedule");
  const auto respaced = pipeline::parse_pipeline_spec(
      "  cse ,dce , alloc=coloring:coolest_first,  thermal-dfa ,schedule ");
  ASSERT_TRUE(canonical.has_value());
  ASSERT_TRUE(respaced.has_value());
  const auto reserialized =
      pipeline::parse_pipeline_spec(pipeline::spec_to_string(*canonical));
  ASSERT_TRUE(reserialized.has_value());
  for (std::size_t k = 0; k <= canonical->size(); ++k) {
    EXPECT_EQ(pipeline::spec_prefix_digest(*canonical, k),
              pipeline::spec_prefix_digest(*respaced, k))
        << k;
    EXPECT_EQ(pipeline::spec_prefix_digest(*canonical, k),
              pipeline::spec_prefix_digest(*reserialized, k))
        << k;
  }

  // Every prefix length digests differently, k clamps to the spec
  // length, and a one-pass change (or an argument change) at any
  // position flips every digest that covers it.
  for (std::size_t k = 1; k <= canonical->size(); ++k) {
    EXPECT_NE(pipeline::spec_prefix_digest(*canonical, k),
              pipeline::spec_prefix_digest(*canonical, k - 1))
        << k;
  }
  EXPECT_EQ(pipeline::spec_prefix_digest(*canonical, 99),
            pipeline::spec_prefix_digest(*canonical, canonical->size()));
  const auto retargeted = pipeline::parse_pipeline_spec(
      "cse,dce,alloc=coloring:hottest_first,thermal-dfa,schedule");
  ASSERT_TRUE(retargeted.has_value());
  EXPECT_EQ(pipeline::spec_prefix_digest(*canonical, 2),
            pipeline::spec_prefix_digest(*retargeted, 2));
  for (std::size_t k = 3; k <= canonical->size(); ++k) {
    EXPECT_NE(pipeline::spec_prefix_digest(*canonical, k),
              pipeline::spec_prefix_digest(*retargeted, k))
        << k;
  }
}

// --- Fixture -----------------------------------------------------------------

class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest()
      : fp_(machine::RegisterFileConfig::default_config()),
        grid_(fp_),
        power_(fp_.config()) {
    ctx_.floorplan = &fp_;
    ctx_.grid = &grid_;
    ctx_.power = &power_;
  }

  pipeline::PassManager manager() const {
    return pipeline::PassManager(ctx_);
  }

  machine::Floorplan fp_;
  thermal::ThermalGrid grid_;
  power::PowerModel power_;
  machine::TimingModel timing_;
  pipeline::PipelineContext ctx_;
};

std::int64_t run_kernel(const workload::Kernel& kernel,
                        const ir::Function& func) {
  const machine::TimingModel timing;
  sim::Interpreter interp(func, timing);
  if (kernel.init_memory) {
    kernel.init_memory(interp.memory());
  }
  const auto result = interp.run(kernel.default_args);
  EXPECT_TRUE(result.ok()) << result.trap.value_or("?");
  return result.return_value.value_or(0);
}

// --- Registry / PassManager behavior ----------------------------------------

TEST_F(PipelineTest, RejectsUnknownPassBeforeRunningAnything) {
  const auto kernel = workload::make_kernel("counter");
  const auto run =
      manager().run(kernel->func, "cse,frobnicate,alloc=linear:first_free");
  EXPECT_FALSE(run.ok);
  EXPECT_NE(run.error.find("unknown pass 'frobnicate'"), std::string::npos)
      << run.error;
  // Construction fails up-front: not even the leading cse may run.
  EXPECT_TRUE(run.pass_stats.empty());
  EXPECT_EQ(ir::to_string(run.state.func), ir::to_string(kernel->func));
}

TEST_F(PipelineTest, RejectsBadPassArguments) {
  const auto kernel = workload::make_kernel("counter");
  EXPECT_FALSE(manager().run(kernel->func, "alloc=quantum").ok);
  EXPECT_FALSE(manager().run(kernel->func, "alloc=linear:hottest_last").ok);
  EXPECT_FALSE(manager().run(kernel->func, "split-hot=0").ok);
  EXPECT_FALSE(manager().run(kernel->func, "nops=zero").ok);
  // Counts past 64 per site are rejected up front: a larger count grows
  // the function without bound, and one past INT_MAX would be narrowed.
  for (const char* count : {"65", "2147483647", "2147483648", "4294967296"}) {
    const std::string spec =
        std::string("alloc=linear:first_free,thermal-dfa,nops=") + count;
    const auto run = manager().run(kernel->func, spec);
    EXPECT_FALSE(run.ok);
    EXPECT_NE(run.error.find("bad nops per_site"), std::string::npos)
        << run.error;
  }
  const std::string at_max = "alloc=linear:first_free,thermal-dfa,nops=64";
  EXPECT_TRUE(manager().run(kernel->func, at_max).ok);
  EXPECT_FALSE(manager().run(kernel->func, "cse=3").ok);
}

TEST_F(PipelineTest, ReportsUnmetPrerequisites) {
  const auto kernel = workload::make_kernel("counter");
  const auto no_alloc = manager().run(kernel->func, "thermal-dfa");
  EXPECT_FALSE(no_alloc.ok);
  EXPECT_NE(no_alloc.error.find("alloc"), std::string::npos) << no_alloc.error;

  // A missing ranking fails by name; only an empty one is a no-op.
  const auto no_ranking =
      manager().run(kernel->func, "alloc=linear:first_free,split-hot");
  EXPECT_FALSE(no_ranking.ok);
  EXPECT_NE(no_ranking.error.find("thermal-dfa"), std::string::npos)
      << no_ranking.error;
  EXPECT_NE(no_ranking.error.find("split-hot requires"), std::string::npos)
      << no_ranking.error;
}

TEST_F(PipelineTest, EmptyCriticalRankingIsANoOp) {
  // thermal-dfa ranks no variable of a constant function, and split-hot
  // consumes the only one of an identity function; the critical-variable
  // transforms then have nothing to do, which is not a failure.
  constexpr const char* kSec4 =
      "alloc=linear:first_free,thermal-dfa,split-hot=1,spill-critical=1,"
      "alloc=coloring:coolest_first,schedule";
  const frontend::Frontend* texpr = frontend::find_frontend("texpr");
  ASSERT_NE(texpr, nullptr);
  const machine::TimingModel timing;
  const std::vector<std::pair<const char*, std::vector<std::int64_t>>>
      cases = {{"fn g() { return 3; }", {}}, {"fn g(a) { return a; }", {5}}};
  for (const auto& [source, args] : cases) {
    frontend::ParseResult parsed = texpr->parse(source);
    ASSERT_TRUE(parsed.ok()) << source << ": " << parsed.diagnostics_text();
    const ir::Function& func = parsed.module->functions().front();
    const auto run = manager().run(func, kSec4);
    ASSERT_TRUE(run.ok) << source << ": " << run.error;
    const auto before = sim::Interpreter(func, timing).run(args);
    const auto after = sim::Interpreter(run.state.func, timing).run(args);
    ASSERT_TRUE(before.ok() && after.ok()) << source;
    EXPECT_EQ(after.return_value, before.return_value) << source;
  }
}

TEST_F(PipelineTest, NopsRejectsStaleDfaAfterIrReshape) {
  const auto kernel = workload::make_kernel("crc32");
  // split-hot reshapes the instruction stream, staling the DFA's
  // per-instruction refs; nops must refuse them instead of inserting at
  // pre-split positions.
  const auto run = manager().run(
      kernel->func,
      "alloc=linear:first_free,thermal-dfa,split-hot=1,"
      "alloc=linear:first_free,nops=2");
  EXPECT_FALSE(run.ok);
  EXPECT_NE(run.error.find("re-run thermal-dfa"), std::string::npos)
      << run.error;

  // Re-running the analysis after the reshape makes the same spec legal.
  const auto rerun = manager().run(
      kernel->func,
      "alloc=linear:first_free,thermal-dfa,split-hot=1,"
      "alloc=linear:first_free,thermal-dfa,nops=2");
  EXPECT_TRUE(rerun.ok) << rerun.error;
}

TEST_F(PipelineTest, CollectsPerPassStatistics) {
  const auto kernel = workload::make_kernel("crc32");
  const auto run = manager().run(
      kernel->func, "cse,dce,alloc=linear:first_free,thermal-dfa,schedule");
  ASSERT_TRUE(run.ok) << run.error;
  ASSERT_EQ(run.pass_stats.size(), 5u);
  EXPECT_EQ(run.pass_stats[2].name, "alloc=linear:first_free");
  EXPECT_GT(run.pass_stats[3].seconds, 0.0);  // the DFA does real work
  EXPECT_FALSE(run.pass_stats[3].summary.empty());
  for (const auto& stats : run.pass_stats) {
    EXPECT_GT(stats.instructions_after, 0u);
  }
  EXPECT_GE(run.total_seconds, run.pass_stats[3].seconds);

  std::ostringstream os;
  pipeline::PassManager::stats_table(run).print(os);
  EXPECT_NE(os.str().find("thermal-dfa"), std::string::npos);
}

TEST_F(PipelineTest, VerifierCheckpointCatchesCorruptingPass) {
  pipeline::PassRegistry registry;
  pipeline::register_builtin_passes(registry);
  registry.register_pass(
      "drop-terminator", "test-only: deletes the entry terminator",
      [](const pipeline::PassSpec&, std::string*) {
        return std::make_unique<pipeline::LambdaPass>(
            "drop-terminator",
            [](pipeline::PipelineState& state, const pipeline::PipelineContext&) {
              state.func.block(state.func.entry()).instructions().pop_back();
              return pipeline::PassOutcome::success("corrupted");
            });
      });
  const pipeline::PassManager manager(ctx_, registry);

  const auto kernel = workload::make_kernel("counter");
  const auto run = manager.run(kernel->func, "cse,drop-terminator,dce");
  EXPECT_FALSE(run.ok);
  EXPECT_NE(run.error.find("verifier checkpoint after pass "
                           "'drop-terminator'"),
            std::string::npos)
      << run.error;
  // cse completed, the corrupting pass was caught, dce never ran.
  ASSERT_EQ(run.pass_stats.size(), 2u);
  EXPECT_EQ(run.pass_stats[0].name, "cse");

  // With checkpoints off the corruption sails through — the checkpoint is
  // what catches it, not the pass machinery.
  pipeline::PassManager unchecked(ctx_, registry);
  unchecked.set_checkpoints(false);
  const auto loose = unchecked.run(kernel->func, "cse,drop-terminator");
  EXPECT_TRUE(loose.ok) << loose.error;
}

// --- Equivalence with the hand-wired flows ----------------------------------

TEST_F(PipelineTest, AllocPassMatchesDirectLinearScan) {
  for (const char* name : {"crc32", "fir", "idct8", "vecsum"}) {
    const auto kernel = workload::make_kernel(name);
    const auto run = manager().run(kernel->func, "alloc=linear:first_free");
    ASSERT_TRUE(run.ok) << name << ": " << run.error;
    ASSERT_TRUE(run.state.has_assignment());

    regalloc::FirstFreePolicy policy;
    regalloc::LinearScanAllocator allocator(fp_, policy);
    const auto direct = allocator.allocate(kernel->func);

    EXPECT_EQ(ir::to_string(run.state.func), ir::to_string(direct.func))
        << name;
    ASSERT_EQ(run.state.assignment()->vreg_count(),
              direct.assignment.vreg_count())
        << name;
    for (ir::Reg r = 0; r < direct.assignment.vreg_count(); ++r) {
      ASSERT_EQ(run.state.assignment()->assigned(r),
                direct.assignment.assigned(r))
          << name << " %" << r;
      if (direct.assignment.assigned(r)) {
        EXPECT_EQ(run.state.assignment()->phys(r), direct.assignment.phys(r))
            << name << " %" << r;
      }
    }
  }
}

// The paper's full Sec. 4 flow: the spec-driven run must equal the
// hand-wired sequence of direct calls it replaced (examples/
// thermal_pipeline.cpp before the migration).
TEST_F(PipelineTest, SpecDrivenSec4FlowMatchesHandWiredFlow) {
  constexpr const char* kSpec =
      "alloc=linear:first_free,thermal-dfa,split-hot=1,spill-critical=1,"
      "alloc=coloring:coolest_first,schedule";

  for (const char* name : {"crc32", "fir", "idct8"}) {
    const auto kernel = workload::make_kernel(name);
    const auto run = manager().run(kernel->func, kSpec);
    ASSERT_TRUE(run.ok) << name << ": " << run.error;
    ASSERT_TRUE(run.state.has_assignment());

    // Hand-wired equivalent, step by step.
    const core::ThermalDfa dfa(grid_, power_, timing_);
    regalloc::FirstFreePolicy first_free;
    regalloc::LinearScanAllocator alloc0(fp_, first_free);
    const auto baseline = alloc0.allocate(kernel->func);
    const auto analysis =
        dfa.analyze_post_ra(baseline.func, baseline.assignment);
    const core::ExactAssignmentModel model(baseline.func, fp_,
                                           baseline.assignment);
    const auto ranking = core::rank_critical_variables(
        baseline.func, model, analysis, grid_, timing_);
    ASSERT_GE(ranking.size(), 2u) << name;

    ir::Function working = baseline.func;
    opt::split_live_range(working, ranking.front().vreg);
    working =
        opt::spill_critical_variables(
            working,
            std::vector<core::CriticalVariable>(ranking.begin() + 1,
                                                ranking.end()),
            1)
            .func;

    regalloc::CoolestFirstPolicy coolest;
    regalloc::GraphColoringAllocator alloc1(fp_, coolest);
    alloc1.set_heat_scores(analysis.exit_reg_temps_k);
    const auto improved = alloc1.allocate(working);
    const auto scheduled =
        opt::thermal_schedule(improved.func, improved.assignment);

    // Same final IR...
    EXPECT_EQ(ir::to_string(run.state.func), ir::to_string(scheduled.func))
        << name;
    // ...same final assignment...
    ASSERT_EQ(run.state.assignment()->vreg_count(),
              improved.assignment.vreg_count())
        << name;
    for (ir::Reg r = 0; r < improved.assignment.vreg_count(); ++r) {
      ASSERT_EQ(run.state.assignment()->assigned(r),
                improved.assignment.assigned(r))
          << name << " %" << r;
      if (improved.assignment.assigned(r)) {
        EXPECT_EQ(run.state.assignment()->phys(r),
                  improved.assignment.phys(r))
            << name << " %" << r;
      }
    }
    // ...and unchanged semantics vs. the untransformed kernel.
    EXPECT_EQ(run_kernel(*kernel, run.state.func),
              run_kernel(*kernel, kernel->func))
        << name;
    if (kernel->expected_result.has_value()) {
      EXPECT_EQ(run_kernel(*kernel, run.state.func), *kernel->expected_result)
          << name;
    }
  }
}

TEST_F(PipelineTest, CsePipelineMatchesHandWiredCompound) {
  const auto kernel = workload::make_kernel("fir");
  const auto run = manager().run(kernel->func, "cse,coalesce,dce");
  ASSERT_TRUE(run.ok) << run.error;

  const auto cse = opt::eliminate_common_subexpressions(kernel->func);
  const auto coal = opt::coalesce_copies(cse.func);
  const auto dce = opt::eliminate_dead_code(coal.func);
  EXPECT_EQ(ir::to_string(run.state.func), ir::to_string(dce.func));
  EXPECT_EQ(run_kernel(*kernel, run.state.func),
            run_kernel(*kernel, kernel->func));
}

TEST_F(PipelineTest, SemanticsPreservedAcrossRepresentativeSpecs) {
  const char* specs[] = {
      "alloc=linear:first_free,thermal-dfa,nops=3",
      "alloc=linear:first_free,thermal-dfa,alloc=linear:coolest_first,"
      "schedule,verify",
      "promote,cse,coalesce,dce,alloc=coloring:farthest_spread",
      "alloc=linear:first_free,thermal-dfa,split-hot=2,"
      "alloc=linear:round_robin,bank-gating",
  };
  for (const char* name : {"crc32", "stencil3", "poly7"}) {
    const auto kernel = workload::make_kernel(name);
    const std::int64_t expected = run_kernel(*kernel, kernel->func);
    for (const char* spec : specs) {
      const auto run = manager().run(kernel->func, spec);
      ASSERT_TRUE(run.ok) << name << " / " << spec << ": " << run.error;
      ASSERT_TRUE(run.state.has_assignment()) << name << " / " << spec;
      EXPECT_EQ(run_kernel(*kernel, run.state.func), expected)
          << name << " / " << spec;
    }
  }
}

}  // namespace
}  // namespace tadfa
